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
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"twopage/internal/engine"
	"twopage/internal/experiments"
	"twopage/internal/obs"
	"twopage/internal/plot"
	"twopage/internal/profiling"
	"twopage/internal/trace"
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

// run is the whole program behind a single os.Exit: every error path
// returns through it, so deferred cleanups — the profile flush above
// all — always execute. (The old structure called os.Exit(1) from the
// middle of main, silently truncating -cpuprofile output whenever any
// experiment failed.)
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	fs.SetOutput(stderr)
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
	statsF := fs.String("stats", "", "write a JSON run report to this file (\"-\" = stderr)")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: paper [flags] [experiment ...|all]\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nExperiments (run `paper -list` for details):\n")
		for _, e := range experiments.All() {
			fmt.Fprintf(stderr, "  %s\n", e.ID)
		}
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *warmup > 0 && *shards <= 1 {
		// The serial pass has no warm-up phase; silently ignoring the
		// flag would report cold-state metrics as if they were warm.
		fmt.Fprintln(stderr, "paper: -warmup requires -shards > 1 (the serial pass replays no warm-up)")
		return 2
	}
	if math.IsNaN(*scale) || math.IsInf(*scale, 0) || *scale <= 0 {
		fmt.Fprintf(stderr, "paper: -scale must be a finite positive number, got %g\n", *scale)
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-12s %s\n%13s%s\n", e.ID, e.Title, "", e.About)
		}
		return 0
	}

	ids := fs.Args()
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		ids = nil
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(stderr, "paper: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "paper: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *traceF != "" {
		name, err := registerTrace(*traceF)
		if err != nil {
			fmt.Fprintf(stderr, "paper: %v\n", err)
			return 1
		}
		// A trace file stands in for the whole program set unless the
		// user picked an explicit subset.
		if *workloads == "" {
			*workloads = name
		}
	}

	names, err := splitWorkloads(*workloads)
	if err != nil {
		fmt.Fprintf(stderr, "paper: %v\n", err)
		return 1
	}

	eopts := []experiments.Opt{
		experiments.WithScale(*scale),
		experiments.WithCSV(*csv),
		experiments.WithJSON(*jsonOut),
		experiments.WithParallelism(*parallelism),
		experiments.WithShards(*shards, *warmup),
		experiments.WithWalkParams(*walkPWC, *walkMem),
	}
	if len(names) > 0 {
		eopts = append(eopts, experiments.WithWorkloads(names...))
	}
	var col *obs.Collector
	if *statsF != "" {
		col = obs.NewCollector()
		eopts = append(eopts, experiments.WithCollector(col))
	}
	if *progress {
		eopts = append(eopts, experiments.WithProgress(func(ev engine.Event) {
			tag := ""
			if ev.CacheHit {
				tag = " (cached)"
			}
			fmt.Fprintf(stderr, "  [%d/%d] %s%s\n", ev.Done, ev.Submitted, ev.Key, tag)
		}))
	}
	opts := experiments.NewOptions(eopts...)

	// Every experiment renders into its own buffer on its own
	// goroutine; the shared engine bounds the simulation work and
	// deduplicates passes across experiments. Buffers are flushed in
	// request order so stdout does not depend on -j.
	type outcome struct {
		buf bytes.Buffer
		dur time.Duration
		err error
	}
	start := time.Now()
	outs := make([]outcome, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			t0 := time.Now()
			outs[i].err = runOne(ctx, id, opts, *chart, &outs[i].buf)
			outs[i].dur = time.Since(t0)
		}(i, id)
	}
	wg.Wait()
	interrupted := ctx.Err() != nil

	// Flush every successful table in request order and report every
	// failure; one bad experiment must not swallow the others' results.
	failed, printed := 0, 0
	for i, id := range ids {
		if outs[i].err != nil {
			if interrupted && errors.Is(outs[i].err, context.Canceled) {
				continue // the single "interrupted" notice below covers these
			}
			failed++
			fmt.Fprintf(stderr, "paper: %v\n", outs[i].err)
			continue
		}
		if printed > 0 {
			fmt.Fprintln(stdout)
		}
		if _, err := outs[i].buf.WriteTo(stdout); err != nil {
			fmt.Fprintf(stderr, "paper: %v\n", err)
			return 1
		}
		printed++
		fmt.Fprintf(stderr, "  [%s in %.1fs at scale %g]\n", id, outs[i].dur.Seconds(), *scale)
	}

	// The run report is written even for failed or interrupted runs:
	// partial counters are exactly what a post-mortem needs.
	if *statsF != "" {
		rep := obs.New("paper")
		rep.Scale = *scale
		rep.Workloads = names
		rep.Parallelism = *parallelism
		rep.WallMS = time.Since(start).Milliseconds()
		st := opts.Engine.Stats()
		rep.Engine = &obs.EngineStats{Submitted: st.Submitted, Done: st.Done, CacheHits: st.CacheHits}
		rep.Totals = col.Totals()
		rep.Passes = col.Passes()
		for i, id := range ids {
			es := obs.ExperimentStatus{ID: id, WallMS: outs[i].dur.Milliseconds()}
			if outs[i].err != nil {
				es.Error = outs[i].err.Error()
			}
			rep.Experiments = append(rep.Experiments, es)
		}
		if err := rep.Write(*statsF, stderr); err != nil {
			fmt.Fprintf(stderr, "paper: %v\n", err)
			if failed == 0 && !interrupted {
				return 1
			}
		}
	}

	switch {
	case interrupted:
		fmt.Fprintln(stderr, "paper: interrupted")
		return 130
	case failed > 0:
		fmt.Fprintf(stderr, "paper: %d of %d experiments failed\n", failed, len(ids))
		return 1
	}
	return 0
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
			return nil, fmt.Errorf("-workloads: %w", err)
		}
		names = append(names, name)
	}
	return names, nil
}

// registerTrace makes a trace file available as a workload named
// trace:<basename>. v2 files are memory-mapped and shared across all
// concurrent passes; v1 and text traces are decoded once into memory
// and replayed from the slice.
func registerTrace(path string) (string, error) {
	name := "trace:" + strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	if f, err := trace.OpenFile(path); err == nil {
		return name, workload.RegisterFile(name, f)
	} else if !errors.Is(err, trace.ErrNotV2) {
		return "", err
	}
	r, closer, err := trace.OpenPath(path, "auto")
	if err != nil {
		return "", err
	}
	defer closer.Close()
	var refs []trace.Ref
	if _, err := trace.Drain(r, func(batch []trace.Ref) {
		refs = append(refs, batch...)
	}); err != nil {
		return "", fmt.Errorf("reading %s: %w", path, err)
	}
	desc := fmt.Sprintf("trace file %s (%d refs, in-memory replay)", path, len(refs))
	return name, workload.RegisterSource(name, desc, uint64(len(refs)), false,
		func(uint64) trace.Reader { return trace.NewSliceReader(refs) })
}

// runOne executes an experiment and renders it into w as a table, CSV,
// JSON, or — when requested and applicable — an ASCII chart.
func runOne(ctx context.Context, id string, opts *experiments.Options, chart bool, w io.Writer) error {
	e, err := experiments.Get(id)
	if err != nil {
		return err
	}
	tbl, err := e.Run(ctx, opts)
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	if spec, chartable := chartSpec[id]; chart && chartable {
		c, err := plot.FromTable(tbl, e.Title, spec.cat, spec.val)
		if err != nil {
			return err
		}
		c.Log = spec.log
		_, err = c.WriteTo(w)
		return err
	}
	switch {
	case opts.JSON:
		return tbl.JSON(w)
	case opts.CSV:
		return tbl.CSV(w)
	default:
		_, err = tbl.WriteTo(w)
		return err
	}
}
