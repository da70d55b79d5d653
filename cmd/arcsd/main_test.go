package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildCmd compiles the command in package pkg into a temporary
// directory as name.
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

// exitCode reports the exit status of a finished command.
func exitCode(t *testing.T, err error) int {
	t.Helper()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0
}

// daemon is an arcsd process booted on a free loopback port.
type daemon struct {
	addr    string
	cmd     *exec.Cmd
	done    chan error // receives the process's Wait result
	exited  bool       // set by a test that received from done
	logPath string
}

// stderr returns what the daemon has logged so far.
func (d *daemon) stderr() string {
	b, _ := os.ReadFile(d.logPath)
	return string(b)
}

// boot starts bin on a free loopback port with args and waits until
// /healthz answers 200. The process is killed when the test ends,
// unless the test saw it exit.
func boot(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{
		addr:    ln.Addr().String(),
		done:    make(chan error, 1),
		logPath: filepath.Join(t.TempDir(), "arcsd.log"),
	}
	ln.Close()
	d.cmd = exec.Command(bin, append([]string{"-addr", d.addr}, args...)...)
	// A file, not a buffer: the daemon writes it directly, so reading it
	// while the process runs races with nothing.
	logFile, err := os.Create(d.logPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { logFile.Close() })
	d.cmd.Stderr = logFile
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	t.Cleanup(func() {
		if !d.exited {
			d.cmd.Process.Kill()
			<-d.done
		}
	})

	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp, err := client.Get("http://" + d.addr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz never answered 200; stderr:\n%s", d.stderr())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStartupErrors: bad command lines exit 2 and a registry that
// cannot be created exits 1, each naming its cause on stderr, before
// the daemon listens.
func TestStartupErrors(t *testing.T) {
	bin := buildCmd(t, ".", "arcsd")
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		code int
		want string
	}{
		{"stray argument", []string{"extra"}, 2, `unexpected argument "extra"`},
		{"bad memory budget", []string{"-mem-budget", "bogus"}, 2, `bad memory budget "bogus"`},
		{"retired backend", []string{"-counts-backend", "spill"}, 2, `unknown backend "spill"`},
		{"bad log format", []string{"-log-format", "xml"}, 2, `unknown log format "xml"`},
		{"retired apply breaker", []string{"-apply-breaker-errors", "5"}, 2, "flag provided but not defined: -apply-breaker-errors"},
		{"registry under a file", []string{"-addr", "127.0.0.1:0", "-registry", filepath.Join(notDir, "models")}, 1, "not a directory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			if code := exitCode(t, cmd.Run()); code != tc.code {
				t.Errorf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr does not name the cause %q:\n%s", tc.want, stderr.String())
			}
		})
	}
}

// TestBootAndDrain: a booted daemon answers /healthz and /readyz with
// 200; SIGTERM turns /readyz to 503 for the lame-duck window, and the
// drained process exits 0.
func TestBootAndDrain(t *testing.T) {
	d := boot(t, buildCmd(t, ".", "arcsd"), "-lame-duck", "3s", "-drain", "5s")
	client := &http.Client{Timeout: time.Second}
	status := func(path string) int {
		resp, err := client.Get("http://" + d.addr + path)
		if err != nil {
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// waitFor polls path until it answers want, failing after a deadline.
	waitFor := func(path string, want int, within time.Duration) {
		t.Helper()
		deadline := time.Now().Add(within)
		for status(path) != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s never answered %d; stderr:\n%s", path, want, d.stderr())
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz = %d before the drain, want 200", got)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitFor("/readyz", http.StatusServiceUnavailable, 3*time.Second)

	select {
	case err := <-d.done:
		d.exited = true
		if code := exitCode(t, err); code != 0 {
			t.Fatalf("exit %d after the drain, want 0; stderr:\n%s", code, d.stderr())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("arcsd did not exit after SIGTERM; stderr:\n%s", d.stderr())
	}
}

// TestModelPlane drives the serving plane of a booted daemon. A synth
// run's model is published and activated as m000001; /apply scores a
// batch exactly as arcsapply scores the same points from the registry;
// and activating m000002 after its file is corrupted answers 409 while
// m000001 keeps serving.
func TestModelPlane(t *testing.T) {
	regDir := t.TempDir()
	apply := buildCmd(t, "arcs/cmd/arcsapply", "arcsapply")
	d := boot(t, buildCmd(t, ".", "arcsd"), "-registry", regDir)
	client := &http.Client{Timeout: 10 * time.Second}
	// call sends body to path and decodes the JSON answer into out,
	// returning the status code.
	call := func(method, path, body string, out any) int {
		t.Helper()
		req, err := http.NewRequest(method, "http://"+d.addr+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v; stderr:\n%s", method, path, err, d.stderr())
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s answered %d with %q: %v", method, path, resp.StatusCode, raw, err)
		}
		return resp.StatusCode
	}

	var run struct{ ID, State, Error string }
	spec := `{"synth":{"function":2,"n":5000,"seed":1,"perturbation":0.05,"frac_a":0.4},` +
		`"x":"age","y":"salary","crit":"group","value":"A","bins":20}`
	if code := call("POST", "/runs", spec, &run); code != http.StatusAccepted || run.ID == "" {
		t.Fatalf("POST /runs = %d, id %q", code, run.ID)
	}
	for deadline := time.Now().Add(30 * time.Second); run.State != "done"; time.Sleep(50 * time.Millisecond) {
		call("GET", "/runs/"+run.ID, "", &run)
		if run.State == "failed" || run.State == "canceled" || run.State == "degraded" || time.Now().After(deadline) {
			t.Fatalf("run %s is %q (%s); stderr:\n%s", run.ID, run.State, run.Error, d.stderr())
		}
	}

	var published struct {
		ID              string
		Active          bool
		ActivationError string `json:"activation_error"`
	}
	if code := call("POST", "/models", `{"run":"`+run.ID+`","activate":true}`, &published); code != http.StatusCreated ||
		published.ID != "m000001" || !published.Active {
		t.Fatalf("publish and activate = %d %+v, want 201, m000001 active", code, published)
	}

	// A lattice over F2's domain, so the batch holds both members and
	// non-members.
	var pts [][2]float64
	records := [][]string{{"age", "salary"}}
	for age := 20.0; age <= 80; age += 3 {
		for salary := 20_000.0; salary <= 150_000; salary += 5_000 {
			pts = append(pts, [2]float64{age, salary})
			records = append(records, []string{strconv.FormatFloat(age, 'g', -1, 64), strconv.FormatFloat(salary, 'g', -1, 64)})
		}
	}
	batch, err := json.Marshal(map[string]any{"points": pts})
	if err != nil {
		t.Fatal(err)
	}
	type applied struct {
		Model   string
		Total   int
		Matched int
		Results []bool
	}
	var got applied
	if code := call("POST", "/apply", string(batch), &got); code != http.StatusOK || got.Model != "m000001" || len(got.Results) != len(pts) {
		t.Fatalf("POST /apply = %d, model %q, %d results for %d points", code, got.Model, len(got.Results), len(pts))
	}
	if got.Matched == 0 || got.Matched == len(pts) {
		t.Fatalf("/apply matched %d of %d points; the comparison needs both members and non-members", got.Matched, len(pts))
	}

	in := filepath.Join(t.TempDir(), "points.csv")
	var doc bytes.Buffer
	w := csv.NewWriter(&doc)
	if err := w.WriteAll(records); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in, doc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(apply, "-registry", regDir, "-in", in)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("arcsapply -registry: %v\n%s", err, stderr.String())
	}
	scored, err := csv.NewReader(&stdout).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(scored) != len(records) {
		t.Fatalf("arcsapply printed %d records, want %d", len(scored), len(records))
	}
	covered := make([]bool, len(pts))
	for i, rec := range scored[1:] {
		covered[i] = rec[len(rec)-1] == "yes"
	}
	if !reflect.DeepEqual(covered, got.Results) {
		t.Errorf("/apply's covered flags differ from arcsapply -registry's in_segment column")
	}

	if code := call("POST", "/models", `{"run":"`+run.ID+`"}`, &published); code != http.StatusCreated || published.ID != "m000002" {
		t.Fatalf("second publish = %d %+v, want 201, m000002", code, published)
	}
	// Zero 8 bytes in the middle of the version's model file.
	f, err := os.OpenFile(filepath.Join(regDir, "m000002.json"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, err := f.Stat()
	if err == nil {
		_, err = f.WriteAt(make([]byte, 8), info.Size()/2)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	var activation struct{ Active, Error string }
	if code := call("POST", "/models/m000002/activate", "", &activation); code != http.StatusConflict || activation.Active != "m000001" {
		t.Errorf("activating the corrupt m000002 = %d %+v, want 409 with m000001 active", code, activation)
	}
	var models struct{ Active string }
	if code := call("GET", "/models", "", &models); code != http.StatusOK || models.Active != "m000001" {
		t.Errorf("GET /models after the failed activation = %d, active %q; want 200, m000001", code, models.Active)
	}
	var after applied
	if code := call("POST", "/apply", string(batch), &after); code != http.StatusOK || after.Model != "m000001" ||
		!reflect.DeepEqual(after.Results, got.Results) {
		t.Errorf("/apply after the failed activation = %d, model %q; want 200, m000001 and the same flags", code, after.Model)
	}
}
