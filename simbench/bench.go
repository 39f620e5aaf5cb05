package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/trace"
)

// minOps is the fewest operations a run measures, whatever its budget.
const minOps = 3

// runFileWorkload measures a file-backed workload. An end-to-end run
// repeats whole operations — build the simulator, generate, encode and
// open the trace, simulate it — until the budget is spent, follows each
// with the calibration kernel, and reports the median over them in
// reference-host time.
func runFileWorkload(ctx context.Context, w *fileWorkload, seed uint64, budget time.Duration, traced bool) (*report, error) {
	if traced {
		return traceFileWorkload(ctx, w, seed, budget)
	}
	rep := newReport()
	clock := newBatchClock(ctx, w.shards > 1)
	cal := newCalibrator()
	var setups, walls, passNs, cpuNs []float64
	var prints []string
	var buf bytes.Buffer
	var f *trace.File
	start := time.Now()
	for op := 0; op < minOps || time.Since(start) < budget; op++ {
		f = nil      // the previous operation's trace must not count in this one's memory
		runtime.GC() // start every operation from the same heap state
		t0 := time.Now()
		// The simulator is built first, while the previous one's large
		// tables lie freed and unfragmented; built after the trace, it
		// grew the heap by 12 MiB in some runs and not in others.
		var sim *core.Simulator
		if w.shards <= 1 {
			sim = w.pipe.simulator()
		}
		var err error
		if f, err = w.input(seed, &buf, nil); err != nil {
			return nil, err
		}
		t1 := time.Now()
		c0 := cpuTime()
		clock.startPass()
		res, _, err := w.fused(clock, f, sim)
		c1 := cpuTime()
		t2 := time.Now()
		speed := cal.speed(1)
		clock.endPass(speed)
		rep.speeds = append(rep.speeds, speed)
		if err != nil {
			rep.check(fmt.Sprintf("pass %d: %v", op, err))
			continue
		}
		setups = append(setups, t1.Sub(t0).Seconds()*speed)
		walls = append(walls, t2.Sub(t0).Seconds()*speed)
		passNs = append(passNs, float64(t2.Sub(t1))/float64(res.Refs)*speed)
		cpuNs = append(cpuNs, float64(c1-c0)/float64(res.Refs)*speed)
		prints = append(prints, fingerprint(res))
	}
	if len(prints) == 0 {
		return nil, fmt.Errorf("no operation completed: %s", rep.failures[0])
	}
	rss := peakRSSMB() // before the checks, whose replay holds a second pipeline
	want, err := w.reference(ctx, rep, f, seed)
	if err != nil {
		return nil, err
	}
	for i, fp := range prints {
		if fp != want {
			rep.check(fmt.Sprintf("pass %d counters differ from the reference: %s", i, diffLines(fp, want)))
		} else {
			rep.check("")
		}
	}
	rep.addEndToEnd(passNs, cpuNs, setups, walls, clock, rss)
	return rep, nil
}

// reference returns the fingerprint every fused pass over f must match.
// At seed 0 that is the committed pin. Other seeds have no pin, so the
// staged replay and a one-shard engine pass must agree with a serial
// core.Simulator pass instead; each agreement is one check in rep.
func (w *fileWorkload) reference(ctx context.Context, rep *report, f *trace.File, seed uint64) (string, error) {
	if seed == 0 {
		return w.pin, nil
	}
	serial, err := w.pipe.simulator().Run(ctx, f.Reader())
	if err != nil {
		return "", err
	}
	one, err := engine.RunSharded(engine.New(1), ctx, f, 0, engine.ShardPlan{Shards: 1}, w.name, func() (*core.Simulator, error) {
		return w.pipe.simulator(), nil
	})
	if err != nil {
		return "", err
	}
	if a, b := fingerprint(one), fingerprint(serial); a != b {
		rep.check("shards=1 differs from the serial pass: " + diffLines(a, b))
	} else {
		rep.check("")
	}
	rr, err := w.replayFile(ctx, f)
	if err != nil {
		return "", err
	}
	want := fingerprint(rr.result)
	if w.shards <= 1 {
		if fp := fingerprint(serial); fp != want {
			rep.check("staged replay differs from the serial pass: " + diffLines(want, fp))
		} else {
			rep.check("")
		}
	}
	return want, nil
}

// traceFileWorkload is the traced run: it alternates fused passes with
// staged replays of the same trace until the budget is spent, fails if
// any replay's counters differ from the fused pass's, and reports the
// per-layer metrics. Each iteration ends with the calibration kernel,
// and its times are reported in reference-host time like the
// end-to-end ones.
func traceFileWorkload(ctx context.Context, w *fileWorkload, seed uint64, budget time.Duration) (*report, error) {
	rep := newReport()
	var st setupTimes
	f, err := w.input(seed, new(bytes.Buffer), &st)
	if err != nil {
		return nil, err
	}
	refs := float64(f.Refs())
	cal := newCalibrator()
	setupSpeed := cal.speed(1)
	var fusedNs, utilisation, warmNs, mergeMs, replayNs []float64
	var runs []*replayRun
	var es engine.Stats
	want, err := w.reference(ctx, rep, f, seed)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for it := 0; it < 1 || time.Since(start) < budget; it++ {
		runtime.GC()
		var sim *core.Simulator
		if w.shards <= 1 {
			sim = w.pipe.simulator()
		}
		c0, t0 := cpuTime(), time.Now()
		res, stats, err := w.fused(ctx, f, sim)
		wall, cpu := time.Since(t0), cpuTime()-c0
		if err != nil {
			return nil, err
		}
		es = stats
		if fp := fingerprint(res); fp != want {
			return nil, fmt.Errorf("fused pass %d counters differ from the reference: %s", it, diffLines(fp, want))
		}
		rep.check("")
		utilisation = append(utilisation, float64(cpu)/float64(wall))

		var warmPerRef float64
		if w.shards > 1 {
			warm, warmRefs, err := w.timeWarm(ctx, f)
			if err != nil {
				return nil, err
			}
			warmPerRef = float64(warm) / float64(warmRefs)
		}

		runtime.GC()
		rr, err := w.replayFile(ctx, f)
		if err != nil {
			return nil, err
		}
		if got := fingerprint(rr.result); got != want {
			return nil, fmt.Errorf("staged replay %d does not reproduce the fused pass, so its layer times would measure a different program: %s",
				it, diffLines(got, want))
		}
		rep.check("")
		speed := cal.speed(1)
		runs = append(runs, rr)
		rep.speeds = append(rep.speeds, speed)
		fusedNs = append(fusedNs, float64(wall)/refs*speed)
		warmNs = append(warmNs, warmPerRef*speed)
		replayNs = append(replayNs, float64(rr.wall)/refs*speed)
		mergeMs = append(mergeMs, float64(rr.merge)/1e6*speed)
	}

	n := len(runs)
	layer := func(get func(layerTimes) time.Duration, per float64) float64 {
		xs := make([]float64, n)
		for i, r := range runs {
			xs[i] = ratio(float64(get(r.times)), per) * rep.speeds[i]
		}
		return median(xs)
	}
	c := runs[0].counts
	res := runs[0].result
	events, walks := float64(c.events), float64(c.walks)
	if res.PageTable == nil {
		walks = 0 // first-TLB misses walk no page table in this pipeline
	}

	rep.add("trace.decode_ns_per_ref", layer(func(t layerTimes) time.Duration { return t.decode }, refs), "ns", n)
	rep.add("trace.bytes_per_ref", f.BytesPerRef(), "B", 1)
	rep.add("trace.encode_ns_per_ref", float64(st.encode)/refs*setupSpeed, "ns", 1)
	rep.add("workload.gen_ns_per_ref", float64(st.gen)/refs*setupSpeed, "ns", 1)
	rep.add("window.step_ns_per_ref", layer(func(t layerTimes) time.Duration { return t.window }, refs), "ns", n)
	rep.add("policy.assign_ns_per_ref", layer(func(t layerTimes) time.Duration { return t.assign - t.window }, refs), "ns", n)
	rep.add("policy.events_per_mref", events*1e6/refs, "count", 1)
	rep.add("policy.large_ref_ratio", largeRefRatio(res), "ratio", 1)
	rep.add("tlb.access_ns_per_ref", layer(func(t layerTimes) time.Duration { return t.access }, refs), "ns", n)
	rep.add("tlb.invalidate_ns_per_event", layer(func(t layerTimes) time.Duration { return t.invalidate }, events), "ns", n)
	rep.add("tlb.miss_ratio", res.TLBs[0].Stats.MissRatio(), "ratio", 1)
	rep.add("tlb.reprobes_per_kref", float64(res.TLBs[0].Stats.Reprobes())*1e3/refs, "count", 1)
	rep.add("pagetable.ns_per_walk", layer(func(t layerTimes) time.Duration { return t.lookup }, walks), "ns", n)
	rep.add("pagetable.remap_ns_per_event", layer(func(t layerTimes) time.Duration { return t.remap }, events), "ns", n)
	rep.add("pagetable.walks_per_kref", walks*1e3/refs, "count", 1)
	rep.add("walk.ns_per_walk", layer(func(t layerTimes) time.Duration { return t.walk }, walks), "ns", n)
	if ws := res.Walk; ws != nil {
		rep.add("walk.cycles_per_walk", ws.CyclesPerWalk(), "cycles", 1)
		rep.add("walk.pwc_hit_ratio", ws.PWCHitRatio(), "ratio", 1)
		rep.add("walk.mem_hit_ratio", ws.MemHitRatio(), "ratio", 1)
	}
	rep.add("wss.observe_ns_per_ref", layer(layerTimes.wssSelf, refs), "ns", n)

	// The fused cost the layers add up to. Shards run one after another,
	// so for every workload it is the pass's wall time.
	basis := median(fusedNs)
	rep.add("core.residual_ns_per_ref", basis-layer(layerTimes.total, refs), "ns", n)
	rep.add("core.trace_overhead_ns_per_ref", median(replayNs)-basis, "ns", n)
	if w.shards > 1 {
		rep.add("core.warm_ns_per_ref", median(warmNs), "ns", len(warmNs))
		rep.add("core.merge_ms", median(mergeMs), "ms", n)
		rep.add("engine.units", float64(es.Submitted), "count", 1)
		rep.add("engine.cache_hit_ratio", ratio(float64(es.CacheHits), float64(es.Submitted)), "ratio", 1)
		rep.add("engine.cpu_utilisation", median(utilisation), "ratio", len(utilisation))
	}
	rep.zeroFill()
	return rep, nil
}

// timeWarm times core.Simulator.Warm over every later shard's warm-up
// preroll, as engine.RunSharded runs it, and returns the time and the
// number of warm-up references.
func (w *fileWorkload) timeWarm(ctx context.Context, f *trace.File) (time.Duration, uint64, error) {
	n := min(w.shards, f.Blocks())
	var total time.Duration
	var refs uint64
	for s := 1; s < n; s++ {
		sim := w.pipe.simulator()
		rd := f.Preroll(s, n, w.warmup)
		refs += rd.Refs()
		t0 := time.Now()
		if err := sim.Warm(ctx, rd); err != nil {
			return 0, 0, err
		}
		total += time.Since(t0)
	}
	return total, refs, nil
}

// largeRefRatio is the share of references that landed on a page larger
// than the base size.
func largeRefRatio(r *core.Result) float64 {
	switch {
	case r.PolicyStats != nil:
		return ratio(float64(r.PolicyStats.LargeRefs), float64(r.PolicyStats.Refs))
	case r.LadderStats != nil:
		return ratio(float64(r.LadderStats.Refs-r.LadderStats.RefsByClass[0]), float64(r.LadderStats.Refs))
	}
	return 0
}
