package cli

import (
	"bytes"
	"flag"
	"strings"
	"testing"
)

// TestParseFlagsRejectsStrayArgument: a non-flag argument ends flag
// parsing, so `-a 1 stray -b 2` would leave -b at its default; ParseFlags
// reports it as a usage error instead, naming it, and parses a clean
// command line as fs.Parse does.
func TestParseFlagsRejectsStrayArgument(t *testing.T) {
	newSet := func() (*flag.FlagSet, *int, *bytes.Buffer) {
		fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
		var out bytes.Buffer
		fs.SetOutput(&out)
		b := fs.Int("b", 1, "a flag")
		return fs, b, &out
	}

	fs, b, out := newSet()
	if err := ParseFlags(fs, []string{"-b", "2"}); err != nil || *b != 2 || out.Len() != 0 {
		t.Fatalf("ParseFlags(-b 2) = %v, b = %d, printed %q", err, *b, out)
	}

	fs, _, out = newSet()
	err := ParseFlags(fs, []string{"stray", "-b", "5"})
	if err == nil || !strings.Contains(err.Error(), `unexpected argument "stray"`) {
		t.Fatalf("ParseFlags(stray -b 5) = %v, want an unexpected-argument error", err)
	}
	if got := out.String(); !strings.Contains(got, `unexpected argument "stray"`) || !strings.Contains(got, "Usage of cmd") {
		t.Errorf("ParseFlags(stray -b 5) printed %q, want the error and the usage", got)
	}

	fs, _, _ = newSet()
	if err := ParseFlags(fs, []string{"-nope"}); err == nil {
		t.Error("ParseFlags(-nope) accepted an undefined flag")
	}
}
