package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildArcstrace compiles this command into a temporary directory.
func buildArcstrace(t *testing.T) string {
	t.Helper()
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go tool to build the command with: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "arcstrace")
	if out, err := exec.Command(gotool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// exitCode is the status of a command that ran to its end.
func exitCode(t *testing.T, err error) int {
	t.Helper()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0
}

// writeBench writes a one-record BENCH trajectory whose only phase took
// the given seconds.
func writeBench(t *testing.T, name, seconds string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	doc := `{"history":[{"timestamp":"2026-01-01T00:00:00Z","phases":[{"name":"ingest","seconds":` + seconds + `}]}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffToleranceIsUsedAsGiven: on two records where a 1 s phase grew
// to 1.15 s, the gate fires at every tolerance under 15% — zero
// included — passes at 20%, and refuses a non-finite tolerance by name.
func TestDiffToleranceIsUsedAsGiven(t *testing.T) {
	bin := buildArcstrace(t)
	oldB, newB := writeBench(t, "old.json", "1"), writeBench(t, "new.json", "1.15")
	cases := []struct {
		tolerance string
		exit      int
		stderr    string
	}{
		{"0%", 1, ""},
		{"0", 1, ""},
		{"10%", 1, ""},
		{"20%", 0, ""},
		{"NaN", 1, `"NaN"`},
		{"Inf", 1, `"Inf"`},
	}
	for _, tc := range cases {
		cmd := exec.Command(bin, "diff", "-tolerance", tc.tolerance, oldB, newB)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		code := exitCode(t, cmd.Run())
		if code != tc.exit {
			t.Errorf("diff -tolerance %s exited %d, want %d\nstdout: %s\nstderr: %s",
				tc.tolerance, code, tc.exit, stdout.String(), stderr.String())
		}
		if tc.stderr != "" && !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("diff -tolerance %s stderr %q does not name %s", tc.tolerance, stderr.String(), tc.stderr)
		}
	}
}

// TestAppendIsUnknownCommand: the retired append subcommand is refused
// as an unknown command, exit 2, and writes no trajectory.
func TestAppendIsUnknownCommand(t *testing.T) {
	bin := buildArcstrace(t)
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	if err := os.WriteFile(trace, []byte(`{"type":"span","name":"run","dur_us":1000}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bench := filepath.Join(dir, "BENCH_trace.json")
	cmd := exec.Command(bin, "append", "-bench", bench, trace)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if code := exitCode(t, cmd.Run()); code != 2 || !strings.Contains(stderr.String(), `unknown command "append"`) {
		t.Errorf("append exited %d, want 2 naming the unknown command\nstderr: %s", code, stderr.String())
	}
	if _, err := os.Stat(bench); !os.IsNotExist(err) {
		t.Errorf("append wrote %s (stat: %v)", bench, err)
	}
}
