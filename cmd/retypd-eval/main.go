// Command retypd-eval regenerates the paper's evaluation tables and
// figures (§6) on the synthetic corpus.
//
// Usage:
//
//	retypd-eval [-exp fig7|fig8|fig9|fig10|fig11|fig12|const|all]
//	            [-scale N] [-quick] [-j N] [-timeout d]
//
// -timeout bounds the whole invocation; SIGINT aborts it. Both exit
// with code 4 (experiments are not incrementally cancellable — the
// process exits rather than waiting for the sweep to finish). Other
// exit codes: 0 success, 2 usage error (an unknown flag or -exp
// value, or a positional argument).
//
// Performance is measured by the perfbench module, not here: the
// fig11/fig12 timings only reproduce the paper's tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"time"

	"retypd/internal/eval"
)

// experiments lists the -exp values in the order -exp all prints them.
var experiments = []string{"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "const"}

func main() {
	exp := flag.String("exp", "all", "experiment: fig7, fig8, fig9, fig10, fig11, fig12, const, all")
	scale := flag.Int("scale", 0, "override corpus scale divisor (default from config)")
	quick := flag.Bool("quick", false, "use the small smoke-test configuration")
	workers := flag.Int("j", 0, "solver worker count for the scaling harness (0 = one per CPU)")
	timeout := flag.Duration("timeout", 0, "abort the whole invocation after this duration (0 = no limit)")
	flag.Parse()
	if *exp != "all" && !slices.Contains(experiments, *exp) {
		fmt.Fprintf(os.Stderr, "retypd-eval: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "retypd-eval: unexpected argument %q (experiments are chosen with -exp)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	// The experiment drivers are batch harnesses without internal
	// cancellation points, so the bound is enforced from outside: on
	// timeout or SIGINT the process exits with a distinct code.
	if *timeout > 0 {
		timer := time.AfterFunc(*timeout, func() {
			fmt.Fprintln(os.Stderr, "retypd-eval: timed out")
			os.Exit(4)
		})
		defer timer.Stop()
	}
	intr := make(chan os.Signal, 1)
	signal.Notify(intr, os.Interrupt)
	go func() {
		<-intr
		fmt.Fprintln(os.Stderr, "retypd-eval: interrupted")
		os.Exit(4)
	}()

	cfg := eval.DefaultConfig()
	if *quick {
		cfg = eval.QuickConfig()
	}
	if *scale > 0 {
		cfg.Suite.Scale = *scale
	}
	cfg.Parallelism = *workers

	needSuite := func(e string) bool {
		switch e {
		case "fig8", "fig9", "fig10", "const", "all":
			return true
		}
		return false
	}
	var suite *eval.SuiteScores
	if needSuite(*exp) {
		fmt.Fprintln(os.Stderr, "generating corpus and running all systems…")
		suite = eval.RunSuite(cfg)
		fmt.Fprintf(os.Stderr, "suite-wide memo effectiveness: body dedup %d hits / %d misses, scheme cache %d hits / %d misses, shape cache %d hits / %d misses\n",
			suite.BodyDedupHits, suite.BodyDedupMisses,
			suite.SchemeCacheHits, suite.SchemeCacheMisses, suite.ShapeCacheHits, suite.ShapeCacheMisses)
	}
	var scaling []eval.ScalingPoint
	if *exp == "fig11" || *exp == "fig12" || *exp == "all" {
		fmt.Fprintln(os.Stderr, "running scaling sweep…")
		scaling = eval.RunScaling(cfg)
	}
	show := func(e string) {
		switch e {
		case "fig7":
			fmt.Println(eval.Figure7(cfg))
		case "fig8":
			fmt.Println(eval.Figure8(suite))
		case "fig9":
			fmt.Println(eval.Figure9(suite))
		case "fig10":
			fmt.Println(eval.Figure10(suite))
		case "fig11":
			fmt.Println(eval.Figure11(scaling))
		case "fig12":
			fmt.Println(eval.Figure12(scaling))
		case "const":
			fmt.Println(eval.ConstReport(suite))
		}
	}
	if *exp == "all" {
		for _, e := range experiments {
			show(e)
			fmt.Println()
		}
		return
	}
	show(*exp)
}
