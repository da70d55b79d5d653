package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"arcs/internal/obs"
)

// scenarioEnv, when set, makes the test binary run as a command that
// plays the named scenario instead of running tests, so the tests of
// the exit paths can run it and read its status and output.
const scenarioEnv = "CLI_TEST_SCENARIO"

func TestMain(m *testing.M) {
	if name := os.Getenv(scenarioEnv); name != "" {
		play(name, os.Args[1:])
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// play is the command under test: it registers two exit hooks that
// print to standard output, then ends the way the scenario says.
func play(scenario string, args []string) {
	c := newCommand(Spec{Name: "tool", Counts: true}, flag.NewFlagSet("tool", flag.ExitOnError), args)
	c.Parse()
	c.Start(os.Stderr)
	defer c.Exit()
	c.AtExit(func() { fmt.Println("hook 1") })
	c.AtExit(func() { fmt.Println("hook 2") })
	switch scenario {
	case "usage":
		c.Usage(errors.New("bad value"))
	case "fatal":
		c.Fatal(errors.New("boom"))
	case "canceled":
		c.Fatal(fmt.Errorf("step: %w", context.DeadlineExceeded))
	case "marked":
		c.MarkCanceled()
	}
}

// TestRegisteredFlags: every command takes -v and -log-format; the
// other shared flags are registered when the Spec asks for them, each
// with its default, and Parse hands their values to the accessors.
func TestRegisteredFlags(t *testing.T) {
	names := func(fs *flag.FlagSet) map[string]string {
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		return got
	}
	bare := flag.NewFlagSet("tool", flag.ContinueOnError)
	newCommand(Spec{Name: "tool"}, bare, nil)
	if got, want := names(bare), map[string]string{"v": "false", "log-format": "text"}; !reflect.DeepEqual(got, want) {
		t.Errorf("bare Spec registered %v, want %v", got, want)
	}

	full := flag.NewFlagSet("tool", flag.ContinueOnError)
	c := newCommand(Spec{Name: "tool", Timeout: "budget", Spans: "trace", Input: true, Counts: true, Profile: true}, full,
		[]string{"-v", "-max-bad-rows", "-1", "-mem-budget", "1K", "-counts-backend", "sparse"})
	want := map[string]string{
		"v": "false", "log-format": "text", "timeout": "0s", "spans": "", "max-bad-rows": "0",
		"mem-budget": "", "counts-backend": "auto", "cpuprofile": "", "memprofile": "", "trace": "",
	}
	if got := names(full); !reflect.DeepEqual(got, want) {
		t.Errorf("full Spec registered %v, want %v", got, want)
	}
	c.Parse()
	if !c.Verbose() || c.MaxBadRows() != -1 || c.MemBudget() != 1024 || c.CountsBackend() != "sparse" {
		t.Errorf("parsed -v %v, -max-bad-rows %d, -mem-budget %d, -counts-backend %q; want true, -1, 1024, sparse",
			c.Verbose(), c.MaxBadRows(), c.MemBudget(), c.CountsBackend())
	}
}

// TestExitPaths runs the test binary as a command. Usage errors exit 2
// with one plain line, never a log record; fatal errors exit 1, or 3
// when they stem from cancellation; and the exit hooks run
// last-registered-first on every path that gets past Start.
func TestExitPaths(t *testing.T) {
	const hooks = "hook 2\nhook 1\n"
	json := []string{"-log-format", "json"}
	for _, tc := range []struct {
		name, scenario string
		args           []string
		code           int
		stdout         string
		stderr         string // the whole of standard error, unless partial
		partial        bool   // stderr need only contain it
	}{
		{"stray argument", "normal", []string{"stray", "-v"}, 2, "", `unexpected argument "stray"`, true},
		{"bad log format", "normal", []string{"-log-format", "xml"}, 2, "",
			"tool: obs: unknown log format \"xml\" (want text or json)\n", false},
		{"bad memory budget", "normal", append(json, "-mem-budget", "bogus"), 2, "",
			"tool: counts: bad memory budget \"bogus\" (want bytes, a K/M/G/T size, or off)\n", false},
		{"usage error", "usage", json, 2, hooks, "tool: bad value\n", false},
		{"fatal", "fatal", json, 1, hooks, `"level":"ERROR","msg":"boom"`, true},
		{"canceled", "canceled", json, 3, hooks, `"msg":"step: context deadline exceeded"`, true},
		{"marked canceled", "marked", json, 3, hooks, "", false},
		{"normal", "normal", json, 0, hooks, "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), scenarioEnv+"="+tc.scenario)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			code := 0
			var exit *exec.ExitError
			if err := cmd.Run(); errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != tc.code || stdout.String() != tc.stdout {
				t.Errorf("exit %d with output %q, want %d and %q", code, stdout.String(), tc.code, tc.stdout)
			}
			if got := stderr.String(); tc.partial && !strings.Contains(got, tc.stderr) || !tc.partial && got != tc.stderr {
				t.Errorf("stderr %q, want %q", got, tc.stderr)
			}
		})
	}
}

// TestStartTimeoutAndSpans: -timeout cancels the context Start returns,
// and -spans is a JSONL trace that Exit closes.
func TestStartTimeoutAndSpans(t *testing.T) {
	defer slog.SetDefault(slog.Default())
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	c := newCommand(Spec{Name: "tool", Timeout: "budget", Spans: "trace"}, flag.NewFlagSet("tool", flag.ContinueOnError),
		[]string{"-timeout", "10ms", "-spans", path})
	c.Parse()
	ctx := c.Start(io.Discard)
	select {
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("-timeout 10ms did not cancel the context")
	}
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Errorf("context ended with %v, want the deadline", ctx.Err())
	}
	obs.New(c.SpanSink()).Root("step").End()
	c.Exit()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"name":"step"`)) {
		t.Errorf("span trace %q has no step span", raw)
	}

	bare := newCommand(Spec{Name: "tool"}, flag.NewFlagSet("tool", flag.ContinueOnError), nil)
	bare.Parse()
	bare.Start(io.Discard)
	defer bare.Exit()
	if sink := bare.SpanSink(); sink != nil {
		t.Errorf("SpanSink without -spans = %v, want nil", sink)
	}
}
