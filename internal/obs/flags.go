package obs

import (
	"flag"
	"fmt"
	"os"
)

// ParseFlags parses args into fs, like fs.Parse, and also refuses any
// argument left after the flags: flag stops at the first non-flag
// argument, so a stray one would silently drop every flag after it. A
// stray argument is handled as fs handles a bad flag: the error and the
// usage go to fs.Output(), then fs's ErrorHandling applies (for
// flag.CommandLine, exit status 2).
func ParseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return nil
	}
	err := fmt.Errorf("unexpected argument %q", fs.Arg(0))
	fmt.Fprintln(fs.Output(), err)
	fs.Usage()
	switch fs.ErrorHandling() {
	case flag.ExitOnError:
		os.Exit(2)
	case flag.PanicOnError:
		panic(err)
	}
	return err
}
