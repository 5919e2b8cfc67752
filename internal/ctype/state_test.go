package ctype

import (
	"math/rand"
	"slices"
	"testing"

	"retypd/internal/label"
	"retypd/internal/lattice"
	"retypd/internal/sketch"
)

// randomSketch builds a random sketch automaton of up to 10 states
// with random bound sets on both sides (scalars, tags, ⊤, ⊥), random
// flags and random stored variances. Even states are values: they get
// function edges to any value, load and store edges to odd "region"
// states, and field edges to any value. Regions get field edges to any
// value. Cycles and shared states occur freely: a region may be loaded
// by several values, and function edges alone may form cycles.
func randomSketch(r *rand.Rand, lat *lattice.Lattice) *sketch.Sketch {
	elems := []lattice.Elem{
		lat.MustElem("int"), lat.MustElem("uint"), lat.MustElem("FILE"), lat.MustElem("str"),
		lat.MustElem("#FileDescriptor"), lat.MustElem("#SuccessZ"), lat.Top(), lat.Bottom(),
	}
	pick := func() []lattice.Elem {
		var set []lattice.Elem
		for _, e := range elems {
			if r.Intn(5) == 0 {
				set = append(set, e)
			}
		}
		return set
	}
	n := 1 + r.Intn(10)
	value := func() int { return 2 * r.Intn((n+1)/2) }
	sk := &sketch.Sketch{Lat: lat, States: make([]sketch.State, n)}
	for i := range sk.States {
		st := &sk.States[i]
		add := func(l label.Label, to int) {
			if r.Intn(3) == 0 {
				st.Edges = append(st.Edges, sketch.Edge{Label: l, To: to})
			}
		}
		if i%2 == 0 {
			for _, l := range []label.Label{label.In("stack0"), label.In("stack4"), label.In("eax"), label.Out("eax")} {
				add(l, value())
			}
			for _, l := range []label.Label{label.Load(), label.Store()} {
				if reg := 1 + 2*r.Intn(n/2+1); reg < n {
					add(l, reg)
				}
			}
		}
		for _, l := range []label.Label{label.Field(32, 0), label.Field(8, 0), label.Field(32, 4), label.Field(16, 8)} {
			add(l, value())
		}
		slices.SortFunc(st.Edges, func(a, b sketch.Edge) int { return label.Compare(a.Label, b.Label) })
		st.LowerSet, st.UpperSet = pick(), pick()
		st.Variance = r.Intn(2) == 0
		st.Flags = sketch.Flags(r.Intn(4))
	}
	return sk
}

// TestFromStateMatchesDescend: for every state of random sketches,
// FromState and ParamFromState render what FromSketch and ConvertParam
// render for the Descend-ed sub-sketch, typedef names included. The
// random sketches give states both bound sets and stored variances
// that disagree with the sub-sketch's recomputed ones, which is where
// converting in place could drift from the materialised copy.
func TestFromStateMatchesDescend(t *testing.T) {
	lat := lattice.Default()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		sk := randomSketch(r, lat)
		inPlace, ref := NewConverter(lat), NewConverter(lat)
		for st, w := range wordsTo(sk) {
			sub, ok := sk.Descend(w)
			if !ok {
				t.Fatalf("state %d unreachable by its word", st)
			}
			if got, want := inPlace.FromState(sk, st).String(), ref.FromSketch(sub).String(); got != want {
				t.Fatalf("state %d: FromState %q, FromSketch(Descend) %q\n%s", st, got, want, sk)
			}
			if got, want := inPlace.ParamFromState(sk, st).String(), ref.ConvertParam(sub).String(); got != want {
				t.Fatalf("state %d: ParamFromState %q, ConvertParam(Descend) %q\n%s", st, got, want, sk)
			}
		}
		for k := range ref.Structs {
			if got, want := inPlace.Structs[k].String(), ref.Structs[k].String(); got != want {
				t.Fatalf("typedef %d: in place %q, materialised %q", k, got, want)
			}
		}
	}
}

// wordsTo returns, for each state of sk reachable from its root, the
// first word reaching it in breadth-first order, in state order.
func wordsTo(sk *sketch.Sketch) map[int]label.Word {
	words := map[int]label.Word{0: nil}
	queue := []int{0}
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		for _, e := range sk.States[st].Edges {
			if _, ok := words[e.To]; !ok {
				words[e.To] = append(append(label.Word(nil), words[st]...), e.Label)
				queue = append(queue, e.To)
			}
		}
	}
	return words
}
