// Package cli is the front end shared by the repository's commands
// (paper, tlbsim, wsssim, vmsim, tracegen, traceinfo). It owns three
// jobs each command would otherwise repeat:
//
//   - the run lifecycle: flag parsing, the SIGINT context,
//     -cpuprofile/-memprofile, writing the -stats run report, and the
//     exit code;
//   - source resolution: -workload/-spec/-refs/-trace/-format become a
//     reader, a name and a length (Source);
//   - the parsers for flags several commands share: -sizes, the policy
//     window -T, the TLB geometry, -walkpwc/-walkmem and -warmup.
//
// Every command follows one exit convention: 0 on success; 2 with one
// line naming the flag for a usage error (a bad flag value or
// combination); 130 when interrupted; 1 for any other failure.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"twopage/internal/obs"
)

// UsageError is a bad flag value or flag combination. Run reports it
// as one line naming the flag and exits 2.
type UsageError struct {
	Flag string // the offending flag, e.g. "-T"
	Err  error
}

func (e *UsageError) Error() string { return e.Flag + ": " + e.Err.Error() }
func (e *UsageError) Unwrap() error { return e.Err }

// Usage wraps err as a usage error naming flag.
func Usage(flag string, err error) error { return &UsageError{Flag: flag, Err: err} }

// Usagef is Usage with a formatted message.
func Usagef(flag, format string, args ...any) error {
	return Usage(flag, fmt.Errorf(format, args...))
}

// Command is one command's flag set and its run lifecycle.
type Command struct {
	Name           string
	Flags          *flag.FlagSet
	Stdout, Stderr io.Writer

	// Set by ObserveFlags; empty when the command has no such flags.
	cpuProfile, memProfile, stats *string
}

// New returns a command with an empty flag set whose -h text is the
// standard "Usage of <name>:" listing, written to stderr.
func New(name string, stdout, stderr io.Writer) *Command {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage of %s:\n", name)
		fs.PrintDefaults()
	}
	return &Command{Name: name, Flags: fs, Stdout: stdout, Stderr: stderr,
		cpuProfile: new(string), memProfile: new(string), stats: new(string)}
}

// ObserveFlags registers -cpuprofile, -memprofile and -stats, which Run
// then honours: profiles cover the whole run, and the report the body
// returns is written to the -stats destination.
func (c *Command) ObserveFlags() {
	c.cpuProfile = c.Flags.String("cpuprofile", "", "write a CPU profile to this file")
	c.memProfile = c.Flags.String("memprofile", "", "write a heap profile to this file on exit")
	c.stats = c.Flags.String("stats", "", "write a JSON run report to this file (\"-\" = stderr)")
}

// Run parses args and runs body under a context cancelled by SIGINT,
// returning the exit code. The report body returns (nil for none) is
// written to -stats even when body fails, so a failed run keeps its
// partial counters; a report that cannot be written fails an otherwise
// successful run.
func (c *Command) Run(args []string, body func(ctx context.Context) (*obs.Report, error)) (code int) {
	if err := c.parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintf(c.Stderr, "%s: %v\n", c.Name, err)
		return 2
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	stopProfiles, err := startProfiles(*c.cpuProfile, *c.memProfile)
	if err != nil {
		return c.exit(ctx, err)
	}
	// Deferred, so the profiles are flushed on every exit path.
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(c.Stderr, "%s: %v\n", c.Name, err)
			if code == 0 {
				code = 1
			}
		}
	}()

	start := time.Now()
	rep, err := body(ctx)
	if rep != nil && *c.stats != "" {
		rep.WallMS = time.Since(start).Milliseconds()
		if werr := rep.Write(*c.stats, c.Stderr); werr != nil {
			if err != nil {
				fmt.Fprintf(c.Stderr, "%s: %v\n", c.Name, werr)
			} else {
				err = werr
			}
		}
	}
	return c.exit(ctx, err)
}

// parse parses args without the flag package's own reporting: a parse
// error becomes one line (printed by Run), and only -h prints usage.
func (c *Command) parse(args []string) error {
	usage := c.Flags.Usage
	c.Flags.Usage = func() {}
	c.Flags.SetOutput(io.Discard)
	err := c.Flags.Parse(args)
	c.Flags.Usage = usage
	c.Flags.SetOutput(c.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		usage()
	}
	return err
}

// exit reports err on stderr and maps it to the exit convention.
func (c *Command) exit(ctx context.Context, err error) int {
	if err == nil {
		return 0
	}
	if ctx.Err() != nil && errors.Is(err, context.Canceled) {
		fmt.Fprintf(c.Stderr, "%s: interrupted\n", c.Name)
		return 130
	}
	fmt.Fprintf(c.Stderr, "%s: %v\n", c.Name, err)
	var usage *UsageError
	if errors.As(err, &usage) {
		return 2
	}
	return 1
}

// startProfiles begins CPU profiling to cpuPath (if non-empty) and
// arranges a heap profile to memPath (if non-empty). The returned stop
// function finishes both. Two empty paths are a no-op.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuF *os.File
	if cpuPath != "" {
		cpuF, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			memF, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer memF.Close()
			runtime.GC() // materialize the final live heap
			if err := pprof.WriteHeapProfile(memF); err != nil {
				return fmt.Errorf("writing heap profile: %w", err)
			}
		}
		return nil
	}, nil
}
