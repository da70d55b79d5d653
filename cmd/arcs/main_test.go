package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"arcs/internal/dataset"
	"arcs/internal/synth"
)

// buildArcs compiles this command into a temporary directory.
func buildArcs(t *testing.T) string {
	t.Helper()
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go tool to build the command with: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "arcs")
	if out, err := exec.Command(gotool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// writeF2CSV writes what `synthgen -n 20000 -seed 7` writes: the
// Function-2 generator with its default perturbation and group fraction.
func writeF2CSV(t *testing.T) string {
	t.Helper()
	gen, err := synth.New(synth.Config{Function: 2, N: 20_000, Seed: 7, Perturbation: 0.05, FracA: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "f2.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	if err := dataset.WriteCSV(bw, gen); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestModesPrintIdenticalRules is the command-level differential test:
// every count backend, ingest parallelism and the streaming input mode
// segment the same CSV into byte-identical output.
func TestModesPrintIdenticalRules(t *testing.T) {
	bin, csv := buildArcs(t), writeF2CSV(t)
	base := []string{"-in", csv, "-x", "age", "-y", "salary", "-crit", "group", "-bins", "20"}
	run := func(extra ...string) string {
		t.Helper()
		cmd := exec.Command(bin, append(base, extra...)...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("arcs %s: %v\n%s", strings.Join(extra, " "), err, stderr.String())
		}
		return stdout.String()
	}
	want := run()
	for _, seg := range []string{"== segmentation for A ==", "== segmentation for other =="} {
		if !strings.Contains(want, seg) {
			t.Fatalf("reference output lacks %q:\n%s", seg, want)
		}
	}
	spillDir := t.TempDir()
	for _, mode := range [][]string{
		{"-counts-backend", "dense", "-mem-budget", "64K"},
		{"-counts-backend", "sparse", "-mem-budget", "64K"},
		{"-counts-backend", "spill", "-mem-budget", "64K", "-spill-dir", spillDir},
		{"-ingest-workers", "1"},
		{"-ingest-workers", "4"},
		{"-stream"},
		{"-stream", "-counts-backend", "spill", "-mem-budget", "64K", "-spill-dir", spillDir},
	} {
		if got := run(mode...); got != want {
			t.Errorf("arcs %s printed\n%s\nwant (in-memory, defaults)\n%s", strings.Join(mode, " "), got, want)
		}
	}
	if entries, err := os.ReadDir(spillDir); err != nil || len(entries) != 0 {
		t.Errorf("spill runs left %d files behind (err %v)", len(entries), err)
	}
}
