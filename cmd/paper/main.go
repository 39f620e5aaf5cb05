// Command paper regenerates the tables and figures of "Tradeoffs in
// Supporting Two Page Sizes" (Talluri, Kong, Hill, Patterson; ISCA 1992)
// from the synthetic workload models in this repository.
//
// Usage:
//
//	paper [-scale f] [-j n] [-csv|-json] [-workloads a,b,c] [experiment ...]
//	paper -trace li.trc tlbsweep      # run experiments over a trace file
//	paper -stats report.json all      # also write a JSON run report
//	paper -list
//
// With no experiment arguments (or "all"), every experiment runs in
// order. Scale 1.0 (default) runs the full-length traces; smaller scales
// shrink traces and windows proportionally for quick looks.
//
// Beyond the paper's own two-size tables, the ladder3 and nindex
// experiments extend the evaluation to deeper page-size hierarchies
// (4KB/32KB/256KB): the Section 3.4 policy generalized to an N-level
// promotion ladder, and Section 2.2's indexing dilemma with three
// coexisting sizes.
//
// Experiments execute concurrently over one shared engine: -j bounds
// the simulation worker pool, identical passes are simulated once, and
// tables are printed in request order — stdout is byte-identical for
// any -j. Timing and -progress reports go to stderr, as does the
// -stats run report when its destination is "-" (the report's counter
// sections are themselves identical for any -j; see internal/obs).
//
// A failed experiment does not abort the run: every successful table is
// still printed, every failure is reported on stderr, and the process
// exits 1 once at the end. SIGINT stops the simulation between batches
// and exits 130 with a one-line notice.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"

	"twopage/internal/cli"
	"twopage/internal/engine"
	"twopage/internal/experiments"
	"twopage/internal/obs"
	"twopage/internal/plot"
	"twopage/internal/tableio"
	"twopage/internal/workload"
)

// chartSpec maps chartable experiments to the table columns forming
// categories and value series; Log marks the paper's log-axis figures.
var chartSpec = map[string]struct {
	cat, val []int
	log      bool
}{
	"fig4.1":   {[]int{0}, []int{1, 2, 3, 4}, true},
	"fig4.2":   {[]int{0}, []int{1, 2, 3, 4}, true},
	"fig5.1":   {[]int{0}, []int{1, 2, 3, 4}, false},
	"fig5.2":   {[]int{0, 1}, []int{2, 3, 4, 5}, false},
	"table5.1": {[]int{0, 1}, []int{2, 3, 4, 5}, false},
	"conflict": {[]int{0}, []int{1, 2, 3, 4}, false},
	"combos":   {[]int{0}, []int{1, 2, 3}, false},
	"tlbsweep": {[]int{0, 1}, []int{2, 3, 4, 5, 6}, true},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cmd := cli.New("paper", stdout, stderr)
	fs := cmd.Flags
	scale := fs.Float64("scale", 1.0, "trace-length multiplier (1.0 = full size)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := fs.Bool("json", false, "emit JSON documents instead of aligned tables")
	chart := fs.Bool("chart", false, "render figures as ASCII bar charts where applicable")
	list := fs.Bool("list", false, "list available experiments and exit")
	workloads := fs.String("workloads", "", "comma-separated program subset (default: experiment's own)")
	traceF := fs.String("trace", "", "run experiments over a trace file instead of the modelled programs")
	parallelism := fs.Int("j", runtime.NumCPU(), "max concurrent simulation passes")
	shards := fs.Int("shards", 1, "split each trace-file pass into this many sections simulated in parallel and merged (1 = exact serial pass; only affects -trace workloads)")
	warmup := fs.Uint64("warmup", 0, "per-shard warm-up references replayed before measuring (0 = auto from the policy window; needs -shards > 1)")
	walkPWC := fs.Int("walkpwc", 0, "walkcpi family: page-walk-cache entries per level (0 = default, negative = disable)")
	walkMem := fs.Int("walkmem", 0, "walkcpi family: memory-side cache bytes for walk loads (0 = default, negative = disable)")
	progress := fs.Bool("progress", false, "report each completed simulation pass on stderr")
	cmd.ObserveFlags()
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: paper [flags] [experiment ...|all]\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nExperiments (run `paper -list` for details):\n")
		for _, e := range experiments.All() {
			fmt.Fprintf(stderr, "  %s\n", e.ID)
		}
	}
	return cmd.Run(args, func(ctx context.Context) (*obs.Report, error) {
		if err := cli.Warmup(*warmup, *shards); err != nil {
			return nil, err
		}
		if math.IsNaN(*scale) || math.IsInf(*scale, 0) || *scale <= 0 {
			return nil, cli.Usagef("-scale", "must be a finite positive number, got %g", *scale)
		}
		wcfg, err := cli.Walk(*walkPWC, *walkMem)
		if err != nil {
			return nil, err
		}
		if *list {
			for _, e := range experiments.All() {
				fmt.Fprintf(stdout, "%-12s %s\n%13s%s\n", e.ID, e.Title, "", e.About)
			}
			return nil, nil
		}

		ids := fs.Args()
		if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
			ids = nil
			for _, e := range experiments.All() {
				ids = append(ids, e.ID)
			}
		}

		if *traceF != "" {
			name, err := cli.RegisterTrace(*traceF)
			if err != nil {
				return nil, err
			}
			// A trace file stands in for the whole program set unless the
			// user picked an explicit subset.
			if *workloads == "" {
				*workloads = name
			}
		}

		names, err := splitWorkloads(*workloads)
		if err != nil {
			return nil, err
		}

		eopts := []experiments.Opt{
			experiments.WithScale(*scale),
			experiments.WithCSV(*csv),
			experiments.WithJSON(*jsonOut),
			experiments.WithParallelism(*parallelism),
			experiments.WithShards(*shards, *warmup),
			experiments.WithWalk(wcfg),
		}
		if len(names) > 0 {
			eopts = append(eopts, experiments.WithWorkloads(names...))
		}
		col := obs.NewCollector()
		eopts = append(eopts, experiments.WithCollector(col))
		if *progress {
			eopts = append(eopts, experiments.WithProgress(func(ev engine.Event) {
				tag := ""
				if ev.CacheHit {
					tag = " (cached)"
				}
				fmt.Fprintf(stderr, "  [%d/%d] %s%s\n", ev.Done, ev.Submitted, ev.Key, tag)
			}))
		}
		runner := experiments.NewRunner(eopts...)
		opts := runner.Options()

		// Every experiment renders into its own buffer; the shared engine
		// bounds the simulation work and deduplicates passes across
		// experiments. Buffers are flushed in request order so stdout
		// does not depend on -j.
		outs := runner.Each(ctx, ids, func(e experiments.Experiment, tbl *tableio.Table, w io.Writer) error {
			spec, chartable := chartSpec[e.ID]
			if !*chart || !chartable {
				return opts.Render(tbl, w)
			}
			c, err := plot.FromTable(tbl, e.Title, spec.cat, spec.val)
			if err != nil {
				return err
			}
			c.Log = spec.log
			_, err = c.WriteTo(w)
			return err
		})
		interrupted := ctx.Err() != nil

		// The run report keeps partial counters even for failed or
		// interrupted runs: exactly what a post-mortem needs.
		rep := obs.New("paper")
		rep.Scale = *scale
		rep.Workloads = names
		rep.Parallelism = *parallelism
		st := opts.Engine.Stats()
		rep.Engine = &obs.EngineStats{Submitted: st.Submitted, Done: st.Done, CacheHits: st.CacheHits}
		rep.Totals = col.Totals()
		rep.Passes = col.Passes()
		for i, id := range ids {
			es := obs.ExperimentStatus{ID: id, WallMS: outs[i].Dur.Milliseconds()}
			if outs[i].Err != nil {
				es.Error = outs[i].Err.Error()
			}
			rep.Experiments = append(rep.Experiments, es)
		}

		// Flush every successful table in request order and report every
		// failure; one bad experiment must not swallow the others' results.
		failed, printed := 0, 0
		for i, id := range ids {
			if outs[i].Err != nil {
				if interrupted && errors.Is(outs[i].Err, context.Canceled) {
					continue // the single "interrupted" notice covers these
				}
				failed++
				fmt.Fprintf(stderr, "paper: %v\n", outs[i].Err)
				continue
			}
			if printed > 0 {
				fmt.Fprintln(stdout)
			}
			if _, err := stdout.Write(outs[i].Out); err != nil {
				return rep, err
			}
			printed++
			fmt.Fprintf(stderr, "  [%s in %.1fs at scale %g]\n", id, outs[i].Dur.Seconds(), *scale)
		}
		switch {
		case interrupted:
			return rep, ctx.Err()
		case failed > 0:
			return rep, fmt.Errorf("%d of %d experiments failed", failed, len(ids))
		}
		return rep, nil
	})
}

// splitWorkloads parses the -workloads flag: entries are comma-separated
// with surrounding whitespace trimmed and empty entries dropped, so
// "a, b" and "a,,b" both mean {a, b}. Each name is validated against the
// workload registry up front, naming the offending token instead of
// failing later inside an arbitrary experiment.
func splitWorkloads(s string) ([]string, error) {
	var names []string
	for _, f := range strings.Split(s, ",") {
		name := strings.TrimSpace(f)
		if name == "" {
			continue
		}
		if _, err := workload.Get(name); err != nil {
			return nil, cli.Usage("-workloads", err)
		}
		names = append(names, name)
	}
	return names, nil
}
