package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"retypd"
	"retypd/internal/baselines"
	"retypd/internal/cfg"
	"retypd/internal/corpus"
	"retypd/internal/eval"
	"retypd/internal/metrics"
	"retypd/internal/sketch"
)

// result assembles the final line: the end-to-end metrics, or with
// tracing the per-layer ones.
func (b *bench) result() result {
	r := result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	if b.tr != nil {
		for k, v := range b.tr.metrics(b) {
			r.Metrics[k] = v
		}
		return r
	}
	put := func(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }
	p50, _ := quantile(b.lat, 0.5)
	p90, _ := quantile(b.lat, 0.9)
	put("op_p50_ms", ms(p50), "ms")
	put("op_p90_ms", ms(p90), "ms")
	put("insts_per_s", float64(b.insts)/b.wall.Seconds(), "inst/s")
	put("alloc_mb_per_op", float64(b.alloc)/mb/float64(len(b.lat)), "MB")
	put("peak_rss_mb", b.peakRSS, "MB")
	put("live_heap_mb", float64(b.liveHeap)/mb, "MB")
	setup, _ := quantile(b.setups, 0.5)
	put("setup_s", setup.Seconds(), "s")
	put("type_distance", b.prec.MeanDistance(), "distance")
	put("conservativeness", b.prec.Conservativeness(), "ratio")
	put("pointer_accuracy", b.prec.PointerAccuracy(), "ratio")
	put("const_recall", b.prec.ConstRecall(), "ratio")
	return r
}

// stamp is the environment and sample record printed before the result.
func (b *bench) stamp() map[string]any {
	_, beyond := quantile(b.lat, 0.9)
	s := map[string]any{
		"workload":      b.cfg.workload,
		"seed":          b.cfg.seed,
		"seconds":       b.cfg.seconds,
		"trace":         b.tr != nil,
		"nproc":         b.nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"workers":       b.engCfg.Workers,
		"go":            runtime.Version(),
		"commit":        sourceDigest(b.cfg.root),
		"cpu":           cpuModel(),
		"generator":     b.wl.params(len(b.lat)),
		"ops":           len(b.lat),
		"op_samples":    len(b.lat),
		"beyond_op_p90": beyond,
		"setup_samples": len(b.setups),
		"checked_ops":   b.checked,
		"scored_vars":   b.prec.N,
		"fail_frac":     float64(b.failed) / float64(max(1, b.attempted)),
		"timed_phase_s": b.wall.Seconds(),
	}
	if b.tr != nil {
		s["traced_ops"] = len(b.latTraced)
		s["untraced_ops"] = len(b.latPlain)
		s["span_file"] = b.tr.file
	}
	return s
}

// printTable prints the metrics for a human reader.
func printTable(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// score rates one result against the generator's ground truth with the
// §6.5 metrics, exactly as the evaluation harness scores the solver.
func score(res *retypd.Result, truth *corpus.Benchmark) metrics.Aggregate {
	inner := res.Solver()
	o := &baselines.Outcome{
		Lat:     inner.Lat,
		Formals: map[string][]cfg.Loc{},
		HasOut:  map[string]bool{},
	}
	for name, pi := range inner.Infos {
		o.Formals[name] = pi.FormalIns
		o.HasOut[name] = pi.HasOut
	}
	o.ParamSk = func(proc, loc string) *sketch.Sketch {
		if pr, ok := inner.Procs[proc]; ok {
			if sk, ok := pr.InSketch(loc); ok {
				return sk
			}
		}
		return nil
	}
	o.OutSk = func(proc string) *sketch.Sketch {
		if pr, ok := inner.Procs[proc]; ok {
			if sk, ok := pr.OutSketch(); ok {
				return sk
			}
		}
		return nil
	}
	return eval.ScoreOutcome(o, truth)
}

// peakRSS is the process's VmHWM in MB.
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the code under test: the SHA-256 of every Go
// source and go.mod file of the tree, in path order. The benchmark runs
// from plain checkouts that carry no version-control metadata, so this
// stands in for the commit id.
func sourceDigest(root string) string {
	h := sha256.New()
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
