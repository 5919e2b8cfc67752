package ctype

import (
	"os"
	"os/exec"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"retypd/internal/label"
	"retypd/internal/lattice"
	"retypd/internal/sketch"
)

// cyclicSketch is a sketch shape whose conversion or rendering once
// recursed until the goroutine stack overflowed, with the type it
// renders as now.
type cyclicSketch struct {
	name  string
	edges [][]sketch.Edge // per state, from state 0
	want  string
}

var cyclicSketches = []cyclicSketch{
	// A function that is its own parameter: convert builds a function
	// type cycle with no pointer or struct on it.
	{
		name:  "function-own-param",
		edges: [][]sketch.Edge{{{Label: label.In("stack0"), To: 0}}},
		want:  "void (*)(void (*)())",
	},
	// A region (state 0) whose field points back at it through a value
	// that loads it: the value's pointee is the region already being
	// converted.
	{
		name: "region-loaded-while-converted",
		edges: [][]sketch.Edge{
			{{Label: label.Field(32, 0), To: 1}, {Label: label.Field(32, 4), To: 0}},
			{{Label: label.Load(), To: 0}},
		},
		want: "struct Struct_0 { Struct_0 * field_0; Struct_0 field_4; }",
	},
	// A function (state 0) that is also a region: its first parameter
	// loads it, so the function's state is converted as a struct while
	// its function type is still being built, and its second parameter
	// is the function itself.
	{
		name: "function-loaded-while-converted",
		edges: [][]sketch.Edge{
			{{Label: label.In("stack0"), To: 1}, {Label: label.In("stack4"), To: 0}, {Label: label.Field(32, 4), To: 2}},
			{{Label: label.Load(), To: 0}},
			nil,
		},
		want: "void (*)(const struct { int field_4; } *, void (*)())",
	},
}

// TestCyclicSketchesTerminate converts and renders each cyclic sketch
// shape in a child process, because a stack overflow is a fatal error
// that no recover catches.
func TestCyclicSketchesTerminate(t *testing.T) {
	if name := os.Getenv("RETYPD_CTYPE_CYCLE"); name != "" {
		debug.SetMaxStack(64 << 20) // a regression overflows fast and small
		shape := cyclicSketches[slices.IndexFunc(cyclicSketches, func(c cyclicSketch) bool { return c.name == name })]
		lat := lattice.Default()
		sk := &sketch.Sketch{Lat: lat, States: make([]sketch.State, len(shape.edges))}
		for i, es := range shape.edges {
			sk.States[i].Edges = slices.Clone(es)
			slices.SortFunc(sk.States[i].Edges, func(a, b sketch.Edge) int { return label.Compare(a.Label, b.Label) })
		}
		if got := NewConverter(lat).FromSketch(sk).String(); got != shape.want {
			t.Fatalf("renders %q, want %q", got, shape.want)
		}
		return
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot locate test binary: %v", err)
	}
	for _, shape := range cyclicSketches {
		name := shape.name
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(exe, "-test.run", "^TestCyclicSketchesTerminate$", "-test.v")
			cmd.Env = append(os.Environ(), "RETYPD_CTYPE_CYCLE="+name)
			out, err := cmd.CombinedOutput()
			if err != nil || !strings.Contains(string(out), "PASS") {
				t.Fatalf("child failed: %v\n%.2000s", err, out)
			}
		})
	}
}
