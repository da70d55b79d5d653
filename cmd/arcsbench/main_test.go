package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"arcs/internal/cli"
)

// buildBench compiles this command into a temporary directory and
// returns a function that runs it.
func buildBench(t *testing.T) func(args ...string) (code int, stdout, stderr string) {
	t.Helper()
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go tool to build the command with: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "arcsbench")
	if out, err := exec.Command(gotool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return func(args ...string) (code int, stdout, stderr string) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		var o, e bytes.Buffer
		cmd.Stdout, cmd.Stderr = &o, &e
		var exit *exec.ExitError
		if err := cmd.Run(); errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		return code, o.String(), e.String()
	}
}

// TestExperimentNames pins the -exp contract: a misspelled name is a
// usage error that runs nothing, and every experiment -exp all runs is
// one -exp accepts.
func TestExperimentNames(t *testing.T) {
	run := buildBench(t)

	t.Run("unknown-is-usage-error", func(t *testing.T) {
		code, stdout, stderr := run("-exp", "nosuch")
		if code != 2 {
			t.Errorf("exit code %d, want 2", code)
		}
		if stdout != "" {
			t.Errorf("unknown experiment printed %q", stdout)
		}
		for _, name := range append(experimentNames, "all") {
			if !strings.Contains(stderr, name) {
				t.Errorf("usage error %q does not list %q", stderr, name)
			}
		}
	})

	// Under an expired budget -exp all skips every experiment, and each
	// one's run first checks that its name is in experimentNames — an
	// experiment -exp would reject panics here instead of exiting 3.
	t.Run("all-are-listed", func(t *testing.T) {
		if code, _, stderr := run("-exp", "all", "-timeout", "1ns"); code != cli.ExitCanceled {
			t.Errorf("exit code %d, want %d (canceled)\n%s", code, cli.ExitCanceled, stderr)
		}
	})
}

// TestStrayArgumentIsUsageError: flag parsing stops at the first
// non-flag argument, so `-exp rules stray -scale 5` would run at full
// scale; the command refuses it instead, naming it, and runs nothing.
func TestStrayArgumentIsUsageError(t *testing.T) {
	run := buildBench(t)
	code, stdout, stderr := run("-exp", "rules", "stray", "-scale", "5")
	if code != 2 || stdout != "" {
		t.Errorf("exit code %d with output %q, want 2 and none", code, stdout)
	}
	if !strings.Contains(stderr, `unexpected argument "stray"`) {
		t.Errorf("usage error %q does not name the stray argument", stderr)
	}
}
