// Package cli is the front end the commands share: the flags they all
// read the same way, the structured logger, the context that SIGINT,
// SIGTERM and -timeout cancel, profiling, the -spans trace file, exit
// hooks and the exit statuses.
//
// A command builds a Command with New, registers its own flags on
// flag.CommandLine, calls Parse, checks its own flag values (reporting
// a bad one with Usage), then calls Start and defers Exit:
//
//	c := cli.New(cli.Spec{Name: "tool", Timeout: "run budget"})
//	n := flag.Int("n", 1, "count")
//	c.Parse()
//	if *n < 1 {
//		c.Usage(errors.New("-n must be positive"))
//	}
//	ctx := c.Start(os.Stderr)
//	defer c.Exit()
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"arcs/internal/counts"
	"arcs/internal/obs"
)

// Exit statuses; success is 0.
const (
	ExitFatal    = 1 // the work failed
	ExitUsage    = 2 // the command line is wrong
	ExitCanceled = 3 // SIGINT, SIGTERM or -timeout canceled the work
)

// Spec names a command and the shared flags it takes besides -v and
// -log-format, which every command takes.
type Spec struct {
	// Name prefixes usage errors, as in "arcs: unknown search".
	Name string
	// Timeout, when set, is the usage text of -timeout, the budget of
	// the context Start returns.
	Timeout string
	// Spans, when set, is the usage text of -spans, the file Start
	// opens for SpanSink.
	Spans string
	// Input adds -max-bad-rows, the quarantine budget of CSV input.
	Input bool
	// Counts adds -mem-budget and -counts-backend.
	Counts bool
	// Profile adds -cpuprofile, -memprofile and -trace.
	Profile bool
}

// Command is a process's front end. It is not safe for concurrent use:
// call its methods from main's goroutine.
type Command struct {
	spec Spec
	fs   *flag.FlagSet
	args []string

	verbose    bool
	logFormat  string
	timeout    time.Duration
	spansPath  string
	maxBadRows int
	memBudget  string
	backend    string
	prof       obs.Profiler

	budget int64
	spans  *obs.JSONLSink
	hooks  []func()
	code   int
}

// New registers the shared flags spec asks for on flag.CommandLine and
// returns the Command that reads them from the process's arguments.
func New(spec Spec) *Command { return newCommand(spec, flag.CommandLine, os.Args[1:]) }

func newCommand(spec Spec, fs *flag.FlagSet, args []string) *Command {
	c := &Command{spec: spec, fs: fs, args: args}
	fs.BoolVar(&c.verbose, "v", false, "debug logging")
	fs.StringVar(&c.logFormat, "log-format", "text", "log output format: text, json")
	if spec.Timeout != "" {
		fs.DurationVar(&c.timeout, "timeout", 0, spec.Timeout)
	}
	if spec.Spans != "" {
		fs.StringVar(&c.spansPath, "spans", "", spec.Spans)
	}
	if spec.Input {
		fs.IntVar(&c.maxBadRows, "max-bad-rows", 0, "input rows to quarantine per pass before failing; -1 unlimited, 0 strict")
	}
	if spec.Counts {
		fs.StringVar(&c.memBudget, "mem-budget", "", "memory budget for the count substrate: bytes with optional K/M/G/T suffix, or 'off' for unlimited (empty keeps the 1 GiB default; grids over budget use the sparse backend)")
		fs.StringVar(&c.backend, "counts-backend", "auto", "count backend: auto, dense, sparse")
	}
	if spec.Profile {
		c.prof.RegisterFlags(fs)
	}
	return c
}

// Parse parses the command line with ParseFlags. A stray argument, an
// undefined flag, or a bad -mem-budget or -counts-backend is a usage
// error; a bad -log-format is reported by Start.
func (c *Command) Parse() {
	if err := ParseFlags(c.fs, c.args); err != nil {
		// ParseFlags has printed the error and the usage.
		c.runHooks()
		os.Exit(ExitUsage)
	}
	if !c.spec.Counts {
		return
	}
	var err error
	if c.budget, err = counts.ParseBudget(c.memBudget); err != nil {
		c.Usage(err)
	}
	if _, err := counts.ParseKind(c.backend); err != nil {
		c.Usage(err)
	}
}

// Start installs the process logger, writing to w, and starts the
// profiles and the span trace the flags ask for. It returns the
// context the command works under: SIGINT, SIGTERM or the -timeout
// budget cancels it, and after that first cancellation default signal
// handling is restored, so a second Ctrl-C kills the process instead of
// waiting for the work to reach its next checkpoint.
func (c *Command) Start(w io.Writer) context.Context {
	if _, err := obs.SetupSlog(w, c.logFormat, c.verbose); err != nil {
		c.Usage(err)
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	c.AtExit(stopSignals)
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		c.AtExit(cancel)
	}
	go func() { <-ctx.Done(); stopSignals() }()

	if c.spec.Profile {
		stop, err := c.prof.Start()
		if err != nil {
			c.Fatal(err)
		}
		c.AtExit(func() {
			if err := stop(); err != nil {
				slog.Error("stopping profilers", "err", err)
			}
		})
	}
	if c.spansPath != "" {
		f, err := os.Create(c.spansPath)
		if err != nil {
			c.Fatal(err)
		}
		c.spans = obs.NewJSONLSink(f)
		c.AtExit(func() {
			if err := c.spans.Err(); err != nil {
				slog.Error("writing span trace", "path", c.spansPath, "err", err)
			}
			if err := f.Close(); err != nil {
				slog.Error("closing span trace", "path", c.spansPath, "err", err)
			}
		})
	}
	return ctx
}

// Verbose reports -v.
func (c *Command) Verbose() bool { return c.verbose }

// MaxBadRows is -max-bad-rows.
func (c *Command) MaxBadRows() int { return c.maxBadRows }

// MemBudget is -mem-budget in bytes: 0 for the default, negative for
// unlimited.
func (c *Command) MemBudget() int64 { return c.budget }

// CountsBackend is -counts-backend.
func (c *Command) CountsBackend() string { return c.backend }

// SpanSink is the -spans trace Start opened, or nil without -spans.
func (c *Command) SpanSink() obs.Sink {
	if c.spans == nil {
		return nil
	}
	return c.spans
}

// AtExit registers fn to run when the process ends, on every exit path:
// Exit, Fatal and Usage. Hooks run last-registered-first.
func (c *Command) AtExit(fn func()) { c.hooks = append(c.hooks, fn) }

// MarkCanceled makes Exit end the process with ExitCanceled: the work
// was canceled, but what it finished has been written.
func (c *Command) MarkCanceled() { c.code = ExitCanceled }

// Exit runs the exit hooks, then ends the process with ExitCanceled if
// MarkCanceled was called; otherwise it returns. Defer it right after
// Start.
func (c *Command) Exit() {
	c.runHooks()
	if c.code != 0 {
		os.Exit(c.code)
	}
}

// Fatal runs the exit hooks, logs err and ends the process with
// ExitFatal, or ExitCanceled when err stems from cancellation.
func (c *Command) Fatal(err error) {
	code := ExitFatal
	if Canceled(err) {
		code = ExitCanceled
	}
	c.runHooks()
	slog.Error(err.Error())
	os.Exit(code)
}

// Usage runs the exit hooks, writes err to standard error as one plain
// "<name>: <err>" line, not a log record, and ends the process with
// ExitUsage.
func (c *Command) Usage(err error) {
	c.runHooks()
	fmt.Fprintf(c.fs.Output(), "%s: %v\n", c.spec.Name, err)
	os.Exit(ExitUsage)
}

// Canceled reports whether err stems from cancellation: a signal or
// an expired -timeout.
func Canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (c *Command) runHooks() {
	hooks := c.hooks
	c.hooks = nil
	for i := len(hooks) - 1; i >= 0; i-- {
		hooks[i]()
	}
}
