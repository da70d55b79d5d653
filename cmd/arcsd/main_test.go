package main

import (
	"bytes"
	"errors"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildArcsd compiles this command into a temporary directory.
func buildArcsd(t *testing.T) string {
	t.Helper()
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go tool to build the command with: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "arcsd")
	if out, err := exec.Command(gotool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
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

// TestStartupErrors: bad command lines exit 2 and a registry that
// cannot be created exits 1, each naming its cause on stderr, before
// the daemon listens.
func TestStartupErrors(t *testing.T) {
	bin := buildArcsd(t)
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
	bin := buildArcsd(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command(bin, "-addr", addr, "-lame-duck", "3s", "-drain", "5s")
	// A file, not a buffer: the daemon writes it directly, so reading it
	// while the process runs races with nothing.
	logPath := filepath.Join(t.TempDir(), "arcsd.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	stderr := func() string {
		b, _ := os.ReadFile(logPath)
		return string(b)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	exited := false
	defer func() {
		if !exited {
			cmd.Process.Kill()
			<-done
		}
	}()

	client := &http.Client{Timeout: time.Second}
	status := func(path string) int {
		resp, err := client.Get("http://" + addr + path)
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
				t.Fatalf("%s never answered %d; stderr:\n%s", path, want, stderr())
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	waitFor("/healthz", http.StatusOK, 10*time.Second)
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz = %d before the drain, want 200", got)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitFor("/readyz", http.StatusServiceUnavailable, 3*time.Second)

	select {
	case err := <-done:
		exited = true
		if code := exitCode(t, err); code != 0 {
			t.Fatalf("exit %d after the drain, want 0; stderr:\n%s", code, stderr())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("arcsd did not exit after SIGTERM; stderr:\n%s", stderr())
	}
}
