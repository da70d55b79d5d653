package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"arcs/internal/dataset"
	"arcs/internal/obs/serve"
	"arcs/internal/segment"
	"arcs/internal/segment/registry"
	"arcs/internal/synth"
)

// buildCmd compiles the command at pkg into a temporary directory.
func buildCmd(t *testing.T, pkg, name string) string {
	t.Helper()
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go tool to build the command with: %v", err)
	}
	bin := filepath.Join(t.TempDir(), name)
	if out, err := exec.Command(gotool, "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
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

// run runs a built command and returns its standard output and exit
// code.
func run(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
		return stdout.String(), ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %s: %v", filepath.Base(bin), strings.Join(args, " "), err)
	}
	return stdout.String(), 0
}

// mustRun is run for a command that must exit 0.
func mustRun(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, code := run(t, bin, args...)
	if code != 0 {
		t.Fatalf("%s %s exited %d", filepath.Base(bin), strings.Join(args, " "), code)
	}
	return out
}

// readCSV parses a whole CSV document.
func readCSV(t *testing.T, doc string) [][]string {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(doc)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// writeCSV encodes records the way the command does.
func writeCSV(t *testing.T, recs [][]string) string {
	t.Helper()
	var b strings.Builder
	w := csv.NewWriter(&b)
	if err := w.WriteAll(recs); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSavedModelScoresLikeApply is the deployment differential: a model
// saved by `arcs -save` scores the CSV it was mined from identically
// through segment.Model.ApplyPoints, arcsapply -model, arcsapply
// -registry and the daemon's /apply endpoint over the same registry.
func TestSavedModelScoresLikeApply(t *testing.T) {
	arcs, apply := buildCmd(t, "arcs/cmd/arcs", "arcs"), buildCmd(t, ".", "arcsapply")
	in := writeF2CSV(t)
	modelPath := filepath.Join(t.TempDir(), "model.json")
	mustRun(t, arcs, "-in", in, "-x", "age", "-y", "salary", "-crit", "group", "-value", "A",
		"-bins", "20", "-save", modelPath)
	f, err := os.Open(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	model, err := segment.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	// The reference: every input point scored in-process.
	raw, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	input := readCSV(t, string(raw))
	col := func(name string) int {
		for i, h := range input[0] {
			if h == name {
				return i
			}
		}
		t.Fatalf("input CSV has no %s column: %v", name, input[0])
		return -1
	}
	ageCol, salaryCol := col("age"), col("salary")
	pts := make([][2]float64, len(input)-1)
	for i, rec := range input[1:] {
		for k, c := range []int{ageCol, salaryCol} {
			if pts[i][k], err = strconv.ParseFloat(rec[c], 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := make([]bool, len(pts))
	matched := model.ApplyPoints(pts, want)
	if matched == 0 || matched == len(pts) {
		t.Fatalf("model covers %d of %d points; the differential needs both members and non-members", matched, len(pts))
	}

	full := mustRun(t, apply, "-model", modelPath, "-in", in)
	scored := readCSV(t, full)
	if len(scored) != len(input) || scored[0][len(scored[0])-1] != "in_segment" {
		t.Fatalf("arcsapply printed %d records with header %v; want %d with a trailing in_segment column",
			len(scored), scored[0], len(input))
	}
	var yes [][]string
	for i, rec := range scored[1:] {
		member := rec[len(rec)-1]
		if (member == "yes") != want[i] || (member != "yes" && member != "no") {
			t.Fatalf("row %d (age %v, salary %v): in_segment %q, ApplyPoints says %v", i, pts[i][0], pts[i][1], member, want[i])
		}
		if member == "yes" {
			yes = append(yes, rec[:len(rec)-1])
		}
	}

	matchedOnly := mustRun(t, apply, "-model", modelPath, "-in", in, "-matched-only")
	if wantDoc := writeCSV(t, append([][]string{scored[0][:len(scored[0])-1]}, yes...)); matchedOnly != wantDoc {
		t.Errorf("-matched-only printed %d bytes, want the %d yes rows without the column (%d bytes)",
			len(matchedOnly), len(yes), len(wantDoc))
	}

	regDir := t.TempDir()
	reg, err := registry.Open(regDir, registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := reg.Publish(model, registry.PublishMeta{Note: "arcsapply differential"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Activate(v.ID); err != nil {
		t.Fatal(err)
	}
	if got := mustRun(t, apply, "-registry", regDir, "-in", in); got != full {
		t.Error("arcsapply -registry output differs from arcsapply -model")
	}
	if got := mustRun(t, apply, "-registry", regDir, "-in", in, "-matched-only"); got != matchedOnly {
		t.Error("arcsapply -registry -matched-only output differs from arcsapply -model -matched-only")
	}

	ts := httptest.NewServer(serve.New(serve.Options{Models: reg}).Handler())
	defer ts.Close()
	body, err := json.Marshal(map[string]any{"points": pts})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/apply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var applied struct {
		Model   string
		Results []bool
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /apply = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&applied); err != nil {
		t.Fatal(err)
	}
	if applied.Model != v.ID || !reflect.DeepEqual(applied.Results, want) {
		t.Errorf("/apply scored with model %q and %d results differing from arcsapply's column",
			applied.Model, len(applied.Results))
	}

	if _, code := run(t, apply, "-model", modelPath, "-registry", regDir, "-in", in); code != 2 {
		t.Errorf("arcsapply -model with -registry exited %d, want 2 (usage)", code)
	}
}

// TestStrayArgumentIsUsageError: flag parsing stops at the first
// non-flag argument, so a stray one would drop every flag after it; the
// command refuses it instead, naming it.
func TestStrayArgumentIsUsageError(t *testing.T) {
	apply := buildCmd(t, ".", "arcsapply")
	dir := t.TempDir()
	out := filepath.Join(dir, "scored.csv")
	cmd := exec.Command(apply, "-model", filepath.Join(dir, "model.json"), "-in", writeF2CSV(t), "stray", "-out", out)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if exit := (*exec.ExitError)(nil); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("arcsapply with a stray argument: %v, want exit 2\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), `unexpected argument "stray"`) {
		t.Errorf("usage error %q does not name the stray argument", stderr.String())
	}
}
