package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests run the command itself: with
// RETYPD_EVAL_RUN_MAIN=1 the test binary is retypd-eval.
func TestMain(m *testing.M) {
	if os.Getenv("RETYPD_EVAL_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runEval runs retypd-eval with args and returns its exit code, stdout
// and stderr.
func runEval(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RETYPD_EVAL_RUN_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatalf("run retypd-eval: %v", err)
	return 0, "", ""
}

// TestUnknownExperimentIsUsageError: an -exp value that names no
// experiment — a typo, or one of the retired timing experiments — exits
// with the usage code and says why, instead of printing nothing and
// exiting 0.
func TestUnknownExperimentIsUsageError(t *testing.T) {
	for _, exp := range []string{"bogus", "par", "warm", "fleet"} {
		code, stdout, stderr := runEval(t, "-exp", exp)
		if code != 2 {
			t.Errorf("-exp %s: exit code %d, want 2", exp, code)
		}
		if stdout != "" {
			t.Errorf("-exp %s: printed %q on stdout", exp, stdout)
		}
		if !strings.Contains(stderr, `unknown experiment "`+exp+`"`) || !strings.Contains(stderr, "-exp") {
			t.Errorf("-exp %s: stderr lacks the reason and the usage:\n%s", exp, stderr)
		}
	}
}

// TestPositionalArgumentIsUsageError: `retypd-eval fig11` names its
// experiment without -exp; it must not silently run every experiment.
func TestPositionalArgumentIsUsageError(t *testing.T) {
	code, stdout, stderr := runEval(t, "-quick", "fig11")
	if code != 2 || stdout != "" || !strings.Contains(stderr, `unexpected argument "fig11"`) {
		t.Errorf("exit code %d, stdout %q, stderr:\n%s\nwant exit 2 and the reason on stderr only", code, stdout, stderr)
	}
}

// TestKnownExperimentRuns: a valid -exp still prints its table and
// exits 0.
func TestKnownExperimentRuns(t *testing.T) {
	code, stdout, stderr := runEval(t, "-exp", "fig7", "-quick")
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "Figure 7") {
		t.Errorf("stdout lacks the Figure 7 table:\n%s", stdout)
	}
}
