// Command perfbench is the repository's benchmark. It runs one named
// workload against the retypd engine from a seed and prints every
// end-to-end metric (or, with --trace 1, every per-layer metric) by name
// and unit, after checking that the engine's outputs are correct.
//
// Load is closed-loop: a single client sends one op at a time, and the
// engine runs with Config.Workers = nproc. An op is one parse → infer →
// render cycle: generated .sasm text → retypd.ParseAsm →
// Engine.InferContext (or ReanalyzeContext) → Result.Signature for every
// procedure, which is the work a reverse engineer waits on.
//
// Usage:
//
//	bash perfbench/run.sh --workload cold|fleet|edit --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every op succeeded and every correctness check passed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// work holds temporary cache/session files and the span dump.
	work string
	// root is the source tree the benchmark was built from; its digest
	// goes into the environment stamp.
	root string
	// corrupt damages every op's rendering before the checks run. Only
	// the self-test sets it, to show that the checks catch a wrong
	// rendering.
	corrupt bool
	// setupOnly runs one set-up, prints its nanoseconds and exits; a run
	// starts its extra set-ups as such child processes.
	setupOnly bool
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(execute(cfg, os.Stdout, os.Stderr))
}

func parseFlags(args []string) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: cold, fleet or edit")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 10, "nominal run length; fixes the number of ops")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&cfg.work, "work", ".", "directory for temporary files and the span dump")
	fs.StringVar(&cfg.root, "root", ".", "source tree to fingerprint for the environment stamp")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "run one set-up and print its nanoseconds (used by the run itself)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown --workload %q (want cold, fleet or edit)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return cfg, errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return cfg, errors.New("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func execute(cfg config, stdout, stderr io.Writer) int {
	b, err := newBench(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer b.close()
	if cfg.setupOnly {
		d, err := b.setupOnce()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, d.Nanoseconds())
		return 0
	}
	if err := b.run(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := b.result()
	stamp, err := json.Marshal(b.stamp())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", stamp)
	printTable(stdout, res.Metrics)
	if !cfg.trace {
		// fail_frac is 0 on a correct engine, so it is no metric a bound
		// could be a share of; the final line carries it as failed and
		// attempted.
		printTable(stdout, map[string]metric{"fail_frac": {float64(res.Failed) / float64(max(1, res.Attempted)), "ratio"}})
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
