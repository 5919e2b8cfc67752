package eval

import "testing"

// TestScalingExponent pins the Figures 11 and 12 claims: whole-program
// inference work scales near-linearly despite the cubic per-procedure
// core (paper: time N^1.098, memory N^0.846). An exponent drifting
// toward 2 would mean the per-SCC locality argument of §5.3 has been
// broken.
//
// The fits are over counts that repeat from run to run at one worker:
// heap objects allocated (the work proxy for Figure 11) and bytes
// allocated (Figure 12). The wall-clock fit is logged, not asserted: on
// a shared host it measures the host as much as the code.
func TestScalingExponent(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep")
	}
	cfg := Config{Fig11Sizes: []int{1000, 2000, 4000, 8000, 16000}, Parallelism: 1}
	points := RunScaling(cfg)
	var xs, secs, objs, bytes []float64
	for _, p := range points {
		xs = append(xs, float64(p.Insts))
		secs = append(secs, p.Seconds)
		objs = append(objs, p.Mallocs)
		bytes = append(bytes, p.AllocBytes)
	}
	tfit := FitPower(xs, secs)
	t.Logf("t = %.3g · N^%.3f (R²=%.3f); paper: N^1.098, R²=0.977 (logged only)", tfit.A, tfit.B, tfit.R2)

	ofit := FitPower(xs, objs)
	t.Logf("mallocs = %.3g · N^%.3f (R²=%.3f)", ofit.A, ofit.B, ofit.R2)
	if ofit.B > 1.45 {
		t.Errorf("allocation-count exponent %.3f is superlinear beyond the paper's regime", ofit.B)
	}
	if ofit.R2 < 0.9 {
		t.Errorf("power model no longer explains the allocation counts (R²=%.3f)", ofit.R2)
	}

	mfit := FitPower(xs, bytes)
	t.Logf("bytes = %.3g · N^%.3f (R²=%.3f); paper (RSS): N^0.846", mfit.A, mfit.B, mfit.R2)
	if mfit.B > 1.3 {
		t.Errorf("memory exponent %.3f is super-linear", mfit.B)
	}
}
