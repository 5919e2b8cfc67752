package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"retypd"
	"retypd/internal/corpus"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a run starts its child set-ups, which re-execute os.Executable().
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "--setup-only" {
			main()
		}
	}
	os.Exit(m.Run())
}

// report must rebuild exactly what Result.Report prints, or every
// checked op would fail.
func TestReportMatchesResultReport(t *testing.T) {
	src := corpus.Generate("t", 3, 2000).Source
	infer := func() *retypd.Result {
		prog, err := retypd.ParseAsm(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := retypd.NewEngine(nil).InferContext(context.Background(), prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := infer()
	if got, want := report(res, render(res)), infer().Report(); got != want {
		t.Fatalf("report differs from Result.Report: %s", firstDiff(got, want))
	}
}

// runOnce executes a one-second edit run and returns its exit code and
// final line.
func runOnce(t *testing.T, corrupt, trace bool) (int, result) {
	t.Helper()
	var out, log bytes.Buffer
	code := execute(config{workload: "edit", seed: 1, seconds: 1, trace: trace, work: t.TempDir(), root: "..", corrupt: corrupt}, &out, &log)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, out.String(), log.String())
	}
	return code, res
}

// A clean run passes and reports exactly the metrics BENCHMARK.json
// declares, by name and unit: the end-to-end ones untraced, all of them
// above zero, and the per-layer ones traced.
func TestCleanRunsReportDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		trace bool
		want  []declared
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		code, res := runOnce(t, false, tc.trace)
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("trace=%v: exit %d, result %+v", tc.trace, code, res)
		}
		if len(res.Metrics) != len(tc.want) {
			t.Errorf("trace=%v: %d metrics, BENCHMARK.json declares %d", tc.trace, len(res.Metrics), len(tc.want))
		}
		for _, d := range tc.want {
			m, ok := res.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("trace=%v: metric %s missing", tc.trace, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("trace=%v: metric %s has unit %q, declared %q", tc.trace, d.Name, m.Unit, d.Unit)
			case !tc.trace && m.Value <= 0:
				t.Errorf("metric %s = %v, want > 0", d.Name, m.Value)
			}
		}
	}
}

// A deliberately corrupted rendering must fail the checked ops, mark the
// run incorrect and make the command exit nonzero.
func TestCorruptedRenderingIsCaught(t *testing.T) {
	code, res := runOnce(t, true, false)
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted run: exit %d, result %+v", code, res)
	}
}
