package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"arcs/internal/cli"
	"arcs/internal/dataset"
	"arcs/internal/synth"
)

// buildSynthgen compiles this command into a temporary directory.
func buildSynthgen(t *testing.T) string {
	t.Helper()
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go tool to build the command with: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "synthgen")
	if out, err := exec.Command(gotool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// run runs the command and returns its exit code and standard error.
func run(t *testing.T, bin string, args ...string) (code int, stderr string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var e bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.Discard, &e
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return code, e.String()
}

// defaultConfig is the generator config synthgen builds from its flag
// defaults and the given overrides.
func defaultConfig(n int, seed int64, outliers float64) synth.Config {
	return synth.Config{Function: 2, N: n, Seed: seed, Perturbation: 0.05, OutlierFraction: outliers, FracA: 0.4}
}

// requireStreamRows reads the CSV at path the way cmd/arcs does
// (InferCSVSchema, then a CSVStream) and requires row i to be
// st.At(i): quantitative attributes bit for bit, categorical ones by
// label. It returns the number of rows.
func requireStreamRows(t *testing.T, path string, st *synth.Stream) int {
	t.Helper()
	schema, err := dataset.InferCSVSchema(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := st.Schema()
	if got := schema.Names(); strings.Join(got, ",") != strings.Join(want.Names(), ",") {
		t.Fatalf("file columns %v, generator attributes %v", got, want.Names())
	}
	stream, err := dataset.OpenCSVStream(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	exp := make(dataset.Tuple, want.Len())
	i := 0
	err = dataset.ForEach(stream, func(got dataset.Tuple) error {
		st.At(i, exp)
		for j := range exp {
			if want.At(j).Kind == dataset.Categorical {
				if g, w := schema.FormatValue(j, got[j]), want.FormatValue(j, exp[j]); g != w {
					t.Fatalf("row %d %s: file has %q, generator %q", i, want.At(j).Name, g, w)
				}
			} else if math.Float64bits(got[j]) != math.Float64bits(exp[j]) {
				t.Fatalf("row %d %s: file has %v, generator %v", i, want.At(j).Name, got[j], exp[j])
			}
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return i
}

// TestPositionalRoundTrip: a file read back through the CSV ingest path
// yields the generator's tuples bit for bit, row i being Stream.At(i) —
// the round trip a benchmark that mines synthgen's file and checks it
// against the generator depends on.
func TestPositionalRoundTrip(t *testing.T) {
	bin := buildSynthgen(t)
	path := filepath.Join(t.TempDir(), "f2.csv")
	if code, stderr := run(t, bin, "-n", "20000", "-seed", "7", "-outliers", "0.1", "-out", path); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	st, err := synth.NewStream(defaultConfig(20_000, 7, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if n := requireStreamRows(t, path, st); n != 20_000 {
		t.Errorf("file holds %d rows, want 20000", n)
	}
}

// TestSequentialMatchesWriteCSV: the file is dataset.WriteCSV over the
// generator's source, byte for byte, and -truth-out records the
// generator's parameters.
func TestSequentialMatchesWriteCSV(t *testing.T) {
	bin := buildSynthgen(t)
	dir := t.TempDir()
	path, truth := filepath.Join(dir, "f2.csv"), filepath.Join(dir, "truth.json")
	if code, stderr := run(t, bin, "-n", "3000", "-seed", "11", "-out", path, "-truth-out", truth); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := synth.NewStream(defaultConfig(3000, 11, 0))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := dataset.WriteCSV(&want, st.Source()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("synthgen wrote %d bytes that differ from WriteCSV's %d", len(got), want.Len())
	}

	raw, err := os.ReadFile(truth)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		N    int   `json:"n"`
		Seed int64 `json:"seed"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.N != 3000 || doc.Seed != 11 {
		t.Errorf("-truth-out records n=%d seed=%d, want 3000, 11", doc.N, doc.Seed)
	}
}

// TestTimeoutFlushesWholeRows: a run cut by -timeout exits 3 and leaves
// a file that ends at a row boundary, every row of it the generator's.
func TestTimeoutFlushesWholeRows(t *testing.T) {
	bin := buildSynthgen(t)
	path := filepath.Join(t.TempDir(), "cut.csv")
	const n = 1_000_000_000
	if code, stderr := run(t, bin, "-n", strconv.Itoa(n), "-seed", "3", "-timeout", "100ms", "-out", path); code != cli.ExitCanceled {
		t.Fatalf("exit %d, want %d\n%s", code, cli.ExitCanceled, stderr)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		t.Fatalf("the cut file (%d bytes) does not end with a newline", len(raw))
	}
	st, err := synth.NewStream(defaultConfig(n, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	rows := requireStreamRows(t, path, st)
	if lines := bytes.Count(raw, []byte{'\n'}); rows != lines-1 {
		t.Errorf("read %d rows from %d lines", rows, lines)
	}
	t.Logf("%d rows before the timeout", rows)
}

// TestUsageAndConfigErrors: a bad generator config is a fatal error
// (exit 1); a bad flag value, a stray argument, which would drop every
// flag after it, or the retired -positional flag is a usage error
// (exit 2) that writes nothing.
func TestUsageAndConfigErrors(t *testing.T) {
	bin := buildSynthgen(t)
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-function", "11"}, 1},
		{[]string{"-log-format", "xml"}, 2},
		{[]string{"stray", "-n", "3"}, 2},
		{[]string{"-positional"}, 2},
	} {
		out := filepath.Join(dir, "out.csv")
		code, stderr := run(t, bin, append(c.args, "-out", out)...)
		if code != c.code {
			t.Errorf("synthgen %s: exit %d, want %d\n%s", strings.Join(c.args, " "), code, c.code, stderr)
		}
		if c.code == 2 {
			if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("synthgen %s wrote %s", strings.Join(c.args, " "), out)
			}
		}
		if c.args[0] == "stray" && !strings.Contains(stderr, `"stray"`) {
			t.Errorf("usage error %q does not name the stray argument", stderr)
		}
	}
}
