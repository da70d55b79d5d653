package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
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
	st, err := synth.NewStream(synth.Config{Function: 2, N: 20_000, Seed: 7, Perturbation: 0.05, FracA: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "f2.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	if err := dataset.WriteCSV(bw, st.Source()); err != nil {
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

// runArcs runs the command and returns its standard output, failing the
// test on a non-zero exit.
func runArcs(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("arcs %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// rewriteCSV writes the file at path with every line passed through fn
// (without its newline) and ending in eol.
func rewriteCSV(t *testing.T, path, eol string, fn func(line string, header bool) string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		b.WriteString(fn(line, i == 0) + eol)
	}
	out := filepath.Join(t.TempDir(), "rewritten.csv")
	if err := os.WriteFile(out, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestModesPrintIdenticalRules is the command-level differential test:
// every count backend, ingest parallelism and the streaming input mode
// segment the same CSV into byte-identical output, and so do rewrites of
// the file (about three parse chunks) with CRLF line endings and with
// every group value quoted — the second sends the whole file through
// encoding/csv instead of the byte-level splitter.
func TestModesPrintIdenticalRules(t *testing.T) {
	bin, csv := buildArcs(t), writeF2CSV(t)
	args := func(in string) []string {
		return []string{"-in", in, "-x", "age", "-y", "salary", "-crit", "group", "-bins", "20"}
	}
	run := func(extra ...string) string {
		t.Helper()
		return runArcs(t, bin, append(args(csv), extra...)...)
	}
	want := run()
	for _, seg := range []string{"== segmentation for A ==", "== segmentation for other =="} {
		if !strings.Contains(want, seg) {
			t.Fatalf("reference output lacks %q:\n%s", seg, want)
		}
	}
	// A 1 KiB budget is under the 20×20 grid's 4,800 dense bytes, so
	// Auto leaves dense for sparse.
	for _, mode := range [][]string{
		{"-counts-backend", "dense", "-mem-budget", "64K"},
		{"-counts-backend", "sparse", "-mem-budget", "64K"},
		{"-mem-budget", "1K"},
		{"-ingest-workers", "1"},
		{"-ingest-workers", "4"},
		{"-stream"},
		{"-stream", "-mem-budget", "1K"},
	} {
		if got := run(mode...); got != want {
			t.Errorf("arcs %s printed\n%s\nwant (in-memory, defaults)\n%s", strings.Join(mode, " "), got, want)
		}
	}

	crlf := rewriteCSV(t, csv, "\r\n", func(line string, _ bool) string { return line })
	quoted := rewriteCSV(t, csv, "\n", func(line string, header bool) string {
		if header {
			return line
		}
		i := strings.LastIndexByte(line, ',')
		return line[:i+1] + `"` + line[i+1:] + `"`
	})
	for _, in := range []struct{ name, path string }{{"crlf", crlf}, {"quoted", quoted}} {
		for _, mode := range [][]string{nil, {"-stream"}} {
			if got := runArcs(t, bin, append(args(in.path), mode...)...); got != want {
				t.Errorf("arcs on the %s file %s printed\n%s\nwant\n%s", in.name, strings.Join(mode, " "), got, want)
			}
		}
	}

	// -describe summarizes the loaded table, or the stream, identically.
	describe := run("-describe")
	if !strings.Contains(describe, "salary") {
		t.Fatalf("-describe printed no salary summary:\n%s", describe)
	}
	if got := run("-describe", "-stream"); got != describe {
		t.Errorf("arcs -describe -stream printed\n%s\nwant (in-memory)\n%s", got, describe)
	}
}

// TestCountsBackendChoice: a budget under the dense grid's footprint
// reports the sparse backend in the JSON counts block, and the retired
// spill backend is refused by name.
func TestCountsBackendChoice(t *testing.T) {
	bin, csv := buildArcs(t), writeF2CSV(t)
	args := []string{"-in", csv, "-x", "age", "-y", "salary", "-crit", "group", "-value", "A", "-bins", "20"}
	var doc struct {
		Counts struct{ Backend string }
	}
	out := runArcs(t, bin, append(args, "-mem-budget", "1K", "-format", "json")...)
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-format json output: %v\n%s", err, out)
	}
	if doc.Counts.Backend != "sparse" {
		t.Errorf("-mem-budget 1K ran on the %q backend, want sparse", doc.Counts.Backend)
	}

	cmd := exec.Command(bin, append(args, "-counts-backend", "spill", "-log-format", "json")...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if exit := (*exec.ExitError)(nil); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("arcs -counts-backend spill: %v, want exit 2 (usage)\n%s", err, stderr.String())
	}
	if want := `unknown backend "spill" (want auto, dense or sparse)`; stdout.Len() != 0 || !strings.Contains(stderr.String(), want) {
		t.Errorf("arcs -counts-backend spill printed %q and %q, want no output and an error naming %s",
			stdout.String(), stderr.String(), want)
	}
}

// TestBadFlagValuesAreUsageErrors: every flag value is checked before
// the input is read, so a bad one exits 2 naming itself even when -in
// names no file, and prints nothing.
func TestBadFlagValuesAreUsageErrors(t *testing.T) {
	bin := buildArcs(t)
	base := []string{"-in", filepath.Join(t.TempDir(), "missing.csv"), "-x", "age", "-y", "salary", "-crit", "group"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-smoothing", "bogus"}, `unknown smoothing "bogus"`},
		{[]string{"-binning", "bogus"}, `unknown binning "bogus"`},
		{[]string{"-search", "bogus"}, `unknown search "bogus"`},
		{[]string{"-mem-budget", "bogus"}, `bad memory budget "bogus"`},
		{[]string{"-counts-backend", "bogus"}, `unknown backend "bogus"`},
		{[]string{"-format", "bogus"}, `unknown format "bogus"`},
		{[]string{"-log-format", "xml"}, `unknown log format "xml"`},
		{[]string{"-bins", "abc"}, `invalid value "abc" for flag -bins`},
		{[]string{"-save", "model.json"}, "-save requires -value"},
		// -retries is gone: no input a command reads raises a transient
		// error, so it could never fire.
		{[]string{"-retries", "2"}, "-retries"},
	} {
		cmd := exec.Command(bin, append(base, tc.args...)...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if exit := (*exec.ExitError)(nil); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("arcs %s: %v, want exit 2\n%s", strings.Join(tc.args, " "), err, stderr.String())
			continue
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("arcs %s printed %q and %q, want no output and an error naming %s",
				strings.Join(tc.args, " "), stdout.String(), stderr.String(), tc.want)
		}
	}
}

// TestMisspelledAttributeIsUsageError: -x, -y and -crit are checked
// against the header the schema was inferred from, before any row is
// loaded or streamed, so a misspelled one exits 2 with one line naming
// it and the file's columns. -describe reads no attribute flag.
func TestMisspelledAttributeIsUsageError(t *testing.T) {
	bin, csv := buildArcs(t), writeF2CSV(t)
	names := map[string]string{"x": "age", "y": "salary", "crit": "group"}
	for _, flag := range []string{"x", "y", "crit"} {
		for _, mode := range [][]string{nil, {"-stream"}} {
			args := []string{"-in", csv, "-value", "A"}
			for f, name := range names {
				if f == flag {
					name += "e"
				}
				args = append(args, "-"+f, name)
			}
			cmd := exec.Command(bin, append(args, mode...)...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if exit := (*exec.ExitError)(nil); !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("arcs %s: %v, want exit 2\n%s", strings.Join(cmd.Args[1:], " "), err, stderr.String())
				continue
			}
			want := "arcs: -" + flag + `: dataset: no attribute "` + names[flag] + `e" (have [salary commission age `
			if stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), want) || strings.Count(stderr.String(), "\n") != 1 {
				t.Errorf("arcs %s printed %q and %q, want no output and one line starting %q",
					strings.Join(cmd.Args[1:], " "), stdout.String(), stderr.String(), want)
			}
		}
	}
	if out := runArcs(t, bin, "-in", csv, "-describe"); !strings.Contains(out, "salary") {
		t.Errorf("arcs -describe printed no salary summary:\n%s", out)
	}
}

// TestSpansAttributeTheLoad: a -spans trace of an in-memory run has the
// dataset.infer and dataset.load root spans, the load carrying its row,
// quarantine and byte counts.
func TestSpansAttributeTheLoad(t *testing.T) {
	bin, csv := buildArcs(t), writeF2CSV(t)
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	runArcs(t, bin, "-in", csv, "-x", "age", "-y", "salary", "-crit", "group", "-value", "A",
		"-bins", "20", "-spans", trace)
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(csv)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev struct {
			Type, Name string
			Parent     uint64
			Attrs      map[string]string
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if ev.Type == "span" && ev.Parent == 0 && strings.HasPrefix(ev.Name, "dataset.") {
			seen[ev.Name] = ev.Attrs
		}
	}
	if _, ok := seen["dataset.infer"]; !ok {
		t.Errorf("trace has no dataset.infer root span")
	}
	want := map[string]string{"rows": "20000", "quarantined": "0", "bytes": strconv.FormatInt(st.Size(), 10)}
	if got := seen["dataset.load"]; !reflect.DeepEqual(got, want) {
		t.Errorf("dataset.load root span attrs = %v, want %v", got, want)
	}
}

// TestQuarantinedRowAddsNoGroup: a row quarantined for a bad number adds
// no criterion value, even with the label left of the bad field, so
// segmenting every value prints no group for it. The row lies past the
// 10,000-row inference prefix, which would otherwise make age
// categorical.
func TestQuarantinedRowAddsNoGroup(t *testing.T) {
	bin, csv := buildArcs(t), writeF2CSV(t)
	row := 0
	dirty := rewriteCSV(t, csv, "\n", func(line string, _ bool) string {
		f := strings.Split(line, ",") // salary,commission,age,...,group
		line = f[9] + "," + f[2] + "," + f[0]
		if row++; row == 15_000 {
			line += "\ntypo,notanumber,50000"
		}
		return line
	})
	out := runArcs(t, bin, "-in", dirty, "-x", "age", "-y", "salary", "-crit", "group", "-bins", "20",
		"-max-bad-rows", "1")
	if !strings.Contains(out, "== segmentation for A ==") || strings.Contains(out, "typo") {
		t.Errorf("arcs on a file with one quarantined typo row printed\n%s\nwant group A and no group typo", out)
	}
}

// TestLiftAboveOneMinesNoRules: -lift raises each value's confidence
// bar to lift × prior. For "other" (prior 0.6) -lift 2 sets the bar at
// 1.2, which no cell can reach: the run exits 0 and prints no rules for
// "other" instead of failing, while A (bar 0.8) keeps its rules.
func TestLiftAboveOneMinesNoRules(t *testing.T) {
	bin, csv := buildArcs(t), writeF2CSV(t)
	out := runArcs(t, bin, "-in", csv, "-x", "age", "-y", "salary", "-crit", "group", "-bins", "20", "-lift", "2")
	a, other, ok := strings.Cut(out, "== segmentation for other ==")
	if !ok || !strings.Contains(a, "=> group = A") || !strings.Contains(other, "(no clustered rules)") {
		t.Errorf("arcs -lift 2 printed\n%s\nwant rules for A and none for other", out)
	}
}

// TestAnnealVerboseCountsCacheHits: -v prints every probe of the search
// and a search: line. Anneal revisits states, and the probe cache
// answers every revisit, so each repeated probe line is marked cached,
// no first one is, and the search: line counts the repeats as its cache
// hits.
func TestAnnealVerboseCountsCacheHits(t *testing.T) {
	bin, csv := buildArcs(t), writeF2CSV(t)
	out := runArcs(t, bin, "-in", csv, "-x", "age", "-y", "salary", "-crit", "group",
		"-value", "A", "-search", "anneal", "-v")
	seen := map[string]bool{}
	repeats, hits := 0, -1
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if probe, ok := strings.CutPrefix(line, "probe "); ok {
			key, _, _ := strings.Cut(probe, " ->")
			cached := strings.HasSuffix(line, ", cached)")
			switch {
			case seen[key] && !cached:
				t.Errorf("repeated probe not marked cached: %s", line)
			case !seen[key] && cached:
				t.Errorf("first probe marked cached: %s", line)
			}
			if seen[key] {
				repeats++
			}
			seen[key] = true
		}
		if search, ok := strings.CutPrefix(line, "search: "); ok {
			fields := strings.Split(search, ", ")
			n, err := strconv.Atoi(strings.TrimSuffix(fields[len(fields)-1], " cache hits"))
			if err != nil {
				t.Fatalf("search line %q: %v", line, err)
			}
			hits = n
		}
	}
	if repeats == 0 {
		t.Fatalf("anneal repeated no probe:\n%s", out)
	}
	if hits != repeats {
		t.Errorf("search line counts %d cache hits over %d repeated probes", hits, repeats)
	}
}

// TestNaNThresholdsAreRejected: a NaN threshold fails the range check
// its out-of-range values fail, with the same exit status and error,
// rather than passing every comparison and mining as if it were unset.
func TestNaNThresholdsAreRejected(t *testing.T) {
	bin, csv := buildArcs(t), writeF2CSV(t)
	base := []string{"-in", csv, "-x", "age", "-y", "salary", "-crit", "group", "-bins", "20"}
	for _, tc := range []struct {
		nan, outOfRange []string
		want            string
	}{
		{[]string{"-search", "fixed", "-minsup", "NaN"}, []string{"-search", "fixed", "-minsup", "-1"}, "fixed thresholds"},
		{[]string{"-search", "fixed", "-minconf", "NaN"}, []string{"-search", "fixed", "-minconf", "2"}, "fixed thresholds"},
		{[]string{"-prune", "NaN"}, []string{"-prune", "2"}, "prune fraction"},
		{[]string{"-lift", "NaN"}, []string{"-lift", "-1"}, "interest lift"},
	} {
		for _, args := range [][]string{tc.outOfRange, tc.nan} {
			cmd := exec.Command(bin, append(base, args...)...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if exit := (*exec.ExitError)(nil); !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Errorf("arcs %s: %v, want exit 1\n%s", strings.Join(args, " "), err, stdout.String())
				continue
			}
			if stdout.Len() != 0 || !strings.Contains(stderr.String(), "core: "+tc.want) {
				t.Errorf("arcs %s printed %q and logged %q, want no output and a core: %s error",
					strings.Join(args, " "), stdout.String(), stderr.String(), tc.want)
			}
		}
	}
}

// TestStrayArgumentIsUsageError: flag parsing stops at the first
// non-flag argument, so `arcs ... stray -bins 5` would mine at the
// default 50 bins; the command refuses it instead, naming it.
func TestStrayArgumentIsUsageError(t *testing.T) {
	bin, csv := buildArcs(t), writeF2CSV(t)
	cmd := exec.Command(bin, "-in", csv, "-x", "age", "-y", "salary", "-crit", "group", "-value", "A", "stray", "-bins", "5")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if exit := (*exec.ExitError)(nil); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("arcs with a stray argument: %v, want exit 2\n%s", err, stdout.String())
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), `unexpected argument "stray"`) {
		t.Errorf("arcs with a stray argument printed %q and logged %q", stdout.String(), stderr.String())
	}
}
