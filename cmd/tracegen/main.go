// Command tracegen writes a synthetic workload's reference stream to a
// trace file, so external tools (or the -trace flags of paper, tlbsim,
// and wsssim) can replay identical traces. Format v2, the default, is
// the block-structured columnar encoding that trace.MapReader decodes
// zero-copy from an mmap and the only one -shards can section; "binary"
// is the v1 streaming format and "text" a one-line-per-ref form for
// interop. Every reader sniffs the format.
//
// Example:
//
//	tracegen -workload matrix300 -refs 1000000 -o m300.trc
//	tracegen -workload li -format binary -o li.trc
//	tracegen -workload li -format text -o li.txt
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"twopage/internal/cli"
	"twopage/internal/obs"
	"twopage/internal/trace"
)

// encoder is what every trace format's writer provides.
type encoder interface {
	Write([]trace.Ref) error
	Flush() error
}

var encoders = map[string]func(io.Writer) encoder{
	"v2":     func(w io.Writer) encoder { return trace.NewV2Writer(w) },
	"binary": func(w io.Writer) encoder { return trace.NewWriter(w) },
	"text":   func(w io.Writer) encoder { return trace.NewTextWriter(w) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cmd := cli.New("tracegen", stdout, stderr)
	source := cmd.SourceFlags(cli.SpecInput)
	out := cmd.Flags.String("o", "", "output file (default <workload>.trc)")
	format := cmd.Flags.String("format", "v2", "v2, binary, or text")
	return cmd.Run(args, func(ctx context.Context) (*obs.Report, error) {
		// The format is checked before the output file is created, so a
		// typo never truncates an existing file.
		newEncoder, ok := encoders[*format]
		if !ok {
			return nil, cli.Usagef("-format", "unknown format %q (want v2, binary, or text)", *format)
		}
		src, err := source.Open()
		if err != nil {
			return nil, err
		}
		path := *out
		if path == "" {
			name := src.Name
			if *source.Spec != "" {
				name = "custom"
			}
			path = name + ".trc"
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		w := newEncoder(f)
		var writeErr error
		written, err := trace.DrainContext(ctx, src.Reader, func(batch []trace.Ref) {
			if writeErr == nil {
				writeErr = w.Write(batch)
			}
		})
		if err == nil {
			err = writeErr
		}
		if err == nil {
			err = w.Flush()
		}
		if err != nil {
			return nil, fmt.Errorf("writing %s: %w", path, err)
		}
		st, err := f.Stat()
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "wrote %d references to %s (%d bytes, %.2f bytes/ref)\n",
			written, path, st.Size(), float64(st.Size())/float64(written))
		return nil, nil
	})
}
