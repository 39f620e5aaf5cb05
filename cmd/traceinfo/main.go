// Command traceinfo characterizes a reference stream — a synthetic
// workload or a trace file — in the paper's analytical terms: footprint
// at both page sizes, chunk density (predicting the promotion policy's
// behaviour), stride distribution and sequentiality.
//
// Examples:
//
//	traceinfo -workload worm
//	traceinfo -workload matrix300 -refs 2000000
//	traceinfo -trace m300.trc
//	traceinfo -all            # one-line summary for all 12 programs
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"twopage/internal/addr"
	"twopage/internal/cli"
	"twopage/internal/obs"
	"twopage/internal/tracestat"
	"twopage/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cmd := cli.New("traceinfo", stdout, stderr)
	source := cmd.SourceFlags(cli.TraceInput)
	all := cmd.Flags.Bool("all", false, "summarize all twelve programs (one line each)")
	return cmd.Run(args, func(ctx context.Context) (*obs.Report, error) {
		if *all {
			fmt.Fprintf(stdout, "%-10s %-9s %-10s %-12s %-12s %s\n",
				"program", "refs(M)", "footprint", "blocks/chunk", "promotable", "sequential")
			for _, s := range workload.All() {
				n := *source.Refs
				if n == 0 {
					n = s.DefaultRefs / 4 // quarter-length is plenty for footprints
				}
				rep, err := tracestat.Analyze(s.New(n))
				if err != nil {
					return nil, err
				}
				fmt.Fprintf(stdout, "%-10s %-9.1f %-10s %-12.2f %-12s %s\n",
					s.Name, float64(n)/1e6,
					fmt.Sprintf("%.2fMB", float64(rep.FootprintBytes)/(1<<20)),
					rep.MeanDensity(),
					fmt.Sprintf("%.0f%%", 100*rep.PromotableFraction(addr.BlocksPerChunk/2)),
					fmt.Sprintf("%.0f%%", 100*rep.SeqFraction()))
			}
			return nil, nil
		}

		src, err := source.Open()
		if err != nil {
			return nil, err
		}
		defer src.Close()
		if f := src.File; f != nil {
			fmt.Fprintf(stdout, "v2 trace:        %d blocks, %d refs, %d bytes (%.3f bytes/ref)\n",
				f.Blocks(), f.Refs(), f.Size(), f.BytesPerRef())
		}
		rep, err := tracestat.Analyze(src.Reader)
		if err != nil {
			return nil, err
		}
		_, err = rep.WriteTo(stdout)
		return nil, err
	})
}
