// Command wsssim computes average working-set sizes (the paper's
// Section 4 metric) over a synthetic workload or trace file, for any set
// of single page sizes and optionally the dynamic 4KB/32KB scheme.
//
// Examples:
//
//	wsssim -workload li                         # 4K..64K + two-page
//	wsssim -workload tomcatv -T 2000000 -sizes 4096,32768
//	wsssim -trace foo.trc -format text
//	wsssim -workload li -stats -                # JSON run report on stderr
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"twopage/internal/cli"
	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/metrics"
	"twopage/internal/obs"
	"twopage/internal/policy"
	"twopage/internal/trace"
	"twopage/internal/wss"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cmd := cli.New("wsssim", stdout, stderr)
	fs := cmd.Flags
	source := cmd.SourceFlags(cli.TraceInput)
	cmd.ObserveFlags()
	var (
		window = fs.Uint64("T", 0, "working-set window in references (0 = refs/8)")
		sizes  = fs.String("sizes", "4096,8192,16384,32768,65536", "comma-separated page sizes in bytes")
		two    = fs.Bool("two", true, "also compute the dynamic 4KB/32KB scheme")
		shards = fs.Int("shards", 1, "compute the static pass over this many v2-trace sections in parallel; the merge is exact, so any value gives the serial result (needs -trace)")
		warmup = fs.Uint64("warmup", 0, "accepted for interface symmetry with tlbsim/paper; the static merge is exact, so wsssim never needs (and rejects) a warm-up")
	)
	return cmd.Run(args, func(ctx context.Context) (*obs.Report, error) {
		if *warmup > 0 {
			// The Slutz–Traiger accumulation decomposes exactly across shard
			// boundaries, so there is no cold-start error for a warm-up to
			// amortize; reject rather than silently ignore the flag.
			return nil, cli.Usagef("-warmup", "is not applicable (the sharded static merge is exact; no warm-up phase exists)")
		}
		pageSizes, err := cli.Sizes(*sizes)
		if err != nil {
			return nil, err
		}
		shifts := make([]uint, len(pageSizes))
		for i, s := range pageSizes {
			shifts[i] = s.Shift()
		}

		// The two-page scheme is a second pass, so the source is opened
		// twice; a v2 file is reread through a fresh cursor.
		first, err := source.Open()
		if err != nil {
			return nil, err
		}
		defer first.Close()
		n := *source.Refs
		if n == 0 {
			n = first.Refs
		}
		if n == 0 {
			n = 8 << 20 // a streamed trace's length is unknown: default T = 1<<20
		}
		T, err := cli.Window(*window, n)
		if err != nil {
			return nil, err
		}

		// Counters for the -stats report: references observed per pass via a
		// Tee (the static pass may be shorter than requested when a trace
		// file runs out), decode work harvested from the readers at the end.
		var totals obs.Counters
		var passes []obs.Pass

		var results []wss.Result
		var c obs.Counters
		if *shards > 1 {
			if first.File == nil {
				return nil, cli.Usagef("-shards", "needs a v2 -trace file (sections require random access)")
			}
			eng := engine.New(*shards)
			results, c, err = engine.StaticWSSSharded(eng, ctx, first.File, 0, uint64(T), *shards, "wss-static", shifts...)
		} else {
			var staticRefs uint64
			staticSrc := trace.NewTee(first.Reader, func(batch []trace.Ref) { staticRefs += uint64(len(batch)) })
			results, err = core.MeasureStaticWSS(ctx, staticSrc, uint64(T), pageSizes...)
			if err == nil {
				c = core.DecodeCounters(staticSrc)
				c.Refs = staticRefs
			}
		}
		if err != nil {
			return nil, err
		}
		c.Passes = 1
		c.WSSPages = results[0].Pages
		passes = append(passes, obs.Pass{Key: fmt.Sprintf("wss-static w=%s T=%d", first.Name, T), Counters: c})
		totals.Add(c)

		base := results[0]
		fmt.Fprintf(stdout, "T = %d references\n", T)
		fmt.Fprintf(stdout, "%-10s %-12s %s\n", "scheme", "avg WSS", "normalized (vs first)")
		for _, r := range results {
			fmt.Fprintf(stdout, "%-10s %-12s %.3f\n", r.Scheme, wss.FormatBytes(r.AvgBytes),
				metrics.WSNormalized(r.AvgBytes, base.AvgBytes))
		}
		if *two {
			second, err := source.Open()
			if err != nil {
				return nil, err
			}
			defer second.Close()
			var twoRefs uint64
			twoSrc := trace.NewTee(second.Reader, func(batch []trace.Ref) { twoRefs += uint64(len(batch)) })
			res, stats, err := core.MeasureTwoSizeWSS(ctx, twoSrc, policy.DefaultTwoSizeConfig(T))
			if err != nil {
				return nil, err
			}
			c := core.DecodeCounters(twoSrc)
			c.Passes = 1
			c.Refs = twoRefs
			c.Promotions = stats.Promotions
			c.Demotions = stats.Demotions
			passes = append(passes, obs.Pass{Key: fmt.Sprintf("wss-two w=%s T=%d", first.Name, T), Counters: c})
			totals.Add(c)
			fmt.Fprintf(stdout, "%-10s %-12s %.3f   (promotions %d, demotions %d)\n",
				res.Scheme, wss.FormatBytes(res.AvgBytes),
				metrics.WSNormalized(res.AvgBytes, base.AvgBytes),
				stats.Promotions, stats.Demotions)
		}

		rep := obs.New("wsssim")
		rep.Workloads = []string{first.Name}
		rep.Totals = totals
		rep.Passes = passes
		return rep, nil
	})
}
