package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"time"

	"twopage/internal/experiments"
	"twopage/internal/obs"
	"twopage/internal/trace"
	"twopage/internal/workload"
)

// suiteName is the workload that runs every registered experiment, as
// `paper all` does.
const suiteName = "paper-suite"

const (
	suiteScale       = 0.05
	suiteParallelism = 2
	// suiteGenReps is how many times an operation generates the suite's
	// inputs to time its set-up.
	suiteGenReps = 5
)

// suitePin is the SHA-256 of the suite's deterministic output: the run
// report's counter sections (engine counts, totals, per-pass counters)
// and the rendered tables with the design-space timing cell masked.
const suitePin = "ed12b1b2db87c35b86ac5bfbcd764def5c72136012618878c1d4a9f6a201b3f3"

// suiteOp is one operation: the suite's inputs generated suiteGenReps
// times, then one RunAll over a fresh runner.
type suiteOp struct {
	setup           []time.Duration // generations of the suite's inputs
	setupSpeed      float64         // single-thread calibration right after them
	genRefs         uint64          // references one generation produces
	wall, cpu       time.Duration   // RunAll
	refs            uint64
	digest          string
	submitted, hits int64
}

func runSuiteOnce(ctx context.Context, cal *calibrator) (suiteOp, error) {
	var op suiteOp
	for range suiteGenReps {
		runtime.GC()
		took, refs, err := suiteGenerate()
		if err != nil {
			return op, err
		}
		op.setup = append(op.setup, took)
		op.genRefs = refs
	}
	op.setupSpeed = cal.speed(1) // generation runs on one thread
	var out bytes.Buffer
	col := obs.NewCollector()
	runner := experiments.NewRunner(
		experiments.WithScale(suiteScale),
		experiments.WithParallelism(suiteParallelism),
		experiments.WithCollector(col),
		experiments.WithOut(&out),
	)
	runtime.GC()
	t1 := time.Now()
	c0 := cpuTime()
	err := runner.RunAll(ctx)
	op.cpu = cpuTime() - c0
	op.wall = time.Since(t1)
	if err != nil {
		return op, err
	}
	st := runner.Options().Engine.Stats()
	op.submitted, op.hits = st.Submitted, st.CacheHits
	rep := obs.New("paper")
	rep.Engine = &obs.EngineStats{Submitted: st.Submitted, Done: st.Done, CacheHits: st.CacheHits}
	rep.Totals = col.Totals()
	rep.Passes = col.Passes()
	op.refs = rep.Totals.Refs
	counters, err := json.Marshal(rep)
	if err != nil {
		return op, fmt.Errorf("encoding run report: %w", err)
	}
	h := sha256.New()
	h.Write(counters)
	h.Write(timingCell.ReplaceAll(out.Bytes(), []byte("T")))
	op.digest = hex.EncodeToString(h.Sum(nil))
	return op, nil
}

// suiteGenerate is the suite's set-up: it drains every program's
// generator at the suite's trace length (the experiments scale
// DefaultRefs, with a floor of 40 000 references) and returns the time
// spent generating and the references generated. RunAll does this work
// inside its passes, where it cannot be timed from outside.
func suiteGenerate() (time.Duration, uint64, error) {
	var refs uint64
	var took time.Duration
	for _, s := range workload.All() {
		n := max(uint64(float64(s.DefaultRefs)*suiteScale), 40_000)
		gen := s.New(n)
		t0 := time.Now()
		got, err := trace.Drain(gen, func([]trace.Ref) {})
		took += time.Since(t0)
		if err != nil {
			return 0, 0, fmt.Errorf("generating %s: %w", s.Name, err)
		}
		refs += got
	}
	return took, refs, nil
}

// timingCell matches the design-space table's wall-clock speed-up cell,
// the one table value that is not deterministic.
var timingCell = regexp.MustCompile(`[0-9]+\.[0-9]+x`)

// runSuite measures the experiment suite: RunAll over every registered
// experiment at scale 0.05 with parallelism 2, repeated until the
// budget is spent, each between two runs of the calibration kernel on
// as many threads. The traced run adds the engine's counters and each
// experiment's time alone on a fresh runner.
func runSuite(ctx context.Context, budget time.Duration, traced bool) (*report, error) {
	rep := newReport()
	clock := newBatchClock(ctx, true)
	cal := newCalibrator()
	var setups, genNs, walls, nsRef, cpuRef, util []float64
	var last suiteOp
	// A RunAll lasts seconds, long enough for the host to change speed
	// under it, so its speed is the mean of the calibrations just before
	// and just after it; each operation's closing one opens the next.
	before := cal.speed(suiteParallelism)
	start := time.Now()
	for op := 0; op < 1 || time.Since(start) < budget; op++ {
		clock.startPass()
		o, err := runSuiteOnce(clock, cal)
		after := cal.speed(suiteParallelism)
		speed := (before + after) / 2
		before = after
		clock.endPass(speed)
		rep.speeds = append(rep.speeds, speed)
		if err != nil {
			rep.check(fmt.Sprintf("RunAll %d: %v", op, err))
			continue
		}
		if o.digest != suitePin {
			rep.check(fmt.Sprintf("RunAll %d output digest %s, want %s", op, o.digest, suitePin))
		} else {
			rep.check("")
		}
		last = o
		for _, d := range o.setup {
			setups = append(setups, d.Seconds()*o.setupSpeed)
			genNs = append(genNs, float64(d)/float64(o.genRefs)*o.setupSpeed)
		}
		walls = append(walls, o.wall.Seconds()*speed)
		nsRef = append(nsRef, float64(o.wall)/float64(o.refs)*speed)
		cpuRef = append(cpuRef, float64(o.cpu)/float64(o.refs)*speed)
		util = append(util, float64(o.cpu)/(float64(o.wall)*suiteParallelism))
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no RunAll completed: %s", rep.failures[0])
	}
	n := len(walls)
	if !traced {
		rep.addEndToEnd(nsRef, cpuRef, setups, walls, clock, peakRSSMB())
		return rep, nil
	}
	rep.add("workload.gen_ns_per_ref", median(genNs), "ns", len(genNs))
	rep.add("engine.units", float64(last.submitted), "count", 1)
	rep.add("engine.cache_hit_ratio", float64(last.hits)/float64(last.submitted), "ratio", 1)
	rep.add("engine.cpu_utilisation", median(util), "ratio", n)
	for _, e := range experiments.All() {
		runtime.GC()
		runner := experiments.NewRunner(
			experiments.WithScale(suiteScale),
			experiments.WithParallelism(suiteParallelism),
			experiments.WithOut(io.Discard),
		)
		t0 := time.Now()
		if err := runner.Run(ctx, e.ID); err != nil {
			return nil, fmt.Errorf("experiment %s alone: %w", e.ID, err)
		}
		took := time.Since(t0)
		rep.add("experiments."+e.ID+".solo_s", took.Seconds()*cal.speed(suiteParallelism), "s", 1)
	}
	rep.zeroFill()
	return rep, nil
}
