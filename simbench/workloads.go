package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/walk"
	"twopage/internal/workload"
)

// traceRefs is every file-backed workload's trace length: at 10^7
// references steady-state simulation, not set-up, dominates a pass.
const traceRefs = 10_000_000

// pipeline is one simulator configuration, kept as parts so the staged
// replay can build the same layers the fused core.Simulator uses.
type pipeline struct {
	newPolicy func() policy.Assigner
	tlbs      []tlb.Config
	walk      bool // page-table shadow with the modeled walk at walk defaults
	wss       bool // two-size working-set observer
}

// walkConfig is the walk model core.WithWalkModel resolves for a
// multi-size policy with the given hierarchy.
func walkConfig(classes addr.SizeClasses) walk.Config {
	cfg := walk.Default(classes)
	cfg.BaseCycles = walk.HandlerBaseCycles(true)
	return cfg
}

// simulator builds the fused simulator for one pass.
func (p pipeline) simulator() *core.Simulator {
	pol := p.newPolicy()
	tlbs := make([]tlb.TLB, len(p.tlbs))
	for i, c := range p.tlbs {
		tlbs[i] = tlb.MustNew(c)
	}
	var opts []core.Option
	if p.walk {
		opts = append(opts, core.WithWalkModel(walkConfig(pol.(policy.MultiSize).SizeClasses())))
	}
	if p.wss {
		opts = append(opts, core.WithWSS())
	}
	return core.NewSimulator(pol, tlbs, opts...)
}

// fileWorkload is a workload whose trace is generated, v2-encoded and
// opened as an in-memory trace.File before it is simulated.
type fileWorkload struct {
	name    string
	program string // built-in generator used at seed 0
	// spec is a workload.Parse description with the same stream kinds
	// and sizes as program; other seeds prepend "seed value=<seed>".
	spec   string
	pipe   pipeline
	shards int    // >1 runs through engine.RunSharded
	warmup uint64 // references each later shard replays first
	// pin is the fingerprint of the fused result at seed 0.
	pin string
}

var (
	twoWay32  = tlb.Config{Entries: 32, Ways: 2, Index: tlb.IndexExact}
	fullyAssc = tlb.Config{Entries: 16, Ways: 16}
	ladder3   = addr.MustShiftClasses(addr.Shift4K, addr.Shift32K, addr.Shift256K)
)

// ladderT is the tomcatv ladder's short window: short enough that
// tomcatv's array sweeps promote and demote tens of thousands of times
// per 10^7 references.
const ladderT = 30_000

var fileWorkloads = []*fileWorkload{
	{
		name:    "worm-two-walk",
		program: "worm",
		spec: `code funcs=6 body=1024 visit=4096 spacing=4K base=0x1000000
dpi 0.35
clusters base=0x20000000 span=24M n=96 size=12K align=8 hot=0.25 hotprob=0.6 burst=18 weight=0.80 store=0.3
uniform base=0x10000000 size=8K align=8 weight=0.20 store=0.4`,
		pipe: pipeline{
			newPolicy: func() policy.Assigner {
				return policy.NewTwoSize(policy.DefaultTwoSizeConfig(traceRefs / 8))
			},
			tlbs: []tlb.Config{twoWay32, fullyAssc},
			walk: true,
			wss:  true,
		},
		pin: wormPin,
	},
	{
		name:    "matrix300-single",
		program: "matrix300",
		spec: `code funcs=2 body=512 visit=16384 spacing=4K base=0x1000000
dpi 0.40
colwalk base=0x10100000 rows=300 cols=300 rowbytes=2400 elem=8 weight=0.45 store=0
seq base=0x10000000 size=720000 stride=8 weight=0.40 store=0
seq base=0x10200000 size=720000 stride=16 weight=0.15 store=0.9`,
		pipe: pipeline{
			newPolicy: func() policy.Assigner { return policy.NewSingle(addr.Size4K) },
			tlbs:      []tlb.Config{twoWay32, fullyAssc},
		},
		pin: matrixPin,
	},
	{
		name:    "tomcatv-ladder3-churn",
		program: "tomcatv",
		spec: `code funcs=4 body=1024 visit=8192 spacing=4K base=0x1000000
dpi 0.36
robin bases=0x10000000,0x10081000,0x10102000,0x10183000,0x10204000,0x10285000,0x10306000 size=512K stride=520 elem=8 burst=3 weight=0.85 store=0.35
uniform base=0x10800000 size=32K align=8 weight=0.15 store=0.4`,
		pipe: pipeline{
			newPolicy: func() policy.Assigner {
				return policy.NewLadder(policy.DefaultLadderConfig(ladderT, ladder3))
			},
			tlbs: []tlb.Config{{Entries: 64, Ways: 4, Index: tlb.IndexExact,
				Shifts: []uint{addr.Shift4K, addr.Shift32K, addr.Shift256K}}},
			walk: true,
		},
		shards: 2,
		warmup: engine.AutoWarmup(ladderT),
		pin:    tomcatvPin,
	},
}

func findWorkload(name string) *fileWorkload {
	for _, w := range fileWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, 0, len(fileWorkloads)+1)
	for _, w := range fileWorkloads {
		names = append(names, w.name)
	}
	return strings.Join(append(names, suiteName), ", ")
}

// generator returns the workload's reference stream for seed.
func (w *fileWorkload) generator(seed uint64) (trace.Reader, error) {
	if seed == 0 {
		return workload.MustNew(w.program, traceRefs), nil
	}
	return workload.Parse(w.program, traceRefs, fmt.Sprintf("seed value=%d\n%s", seed, w.spec))
}

// setupTimes splits one set-up into its generate and encode shares.
type setupTimes struct {
	gen, encode time.Duration
}

// input generates the trace, v2-encodes it into buf and opens it; the
// File reads buf, so buf may be reused only once the File is dropped;
// the operations of a run share one buffer rather than allocate 16 MiB
// each. The generate and encode shares are timed per batch into st when
// it is not nil.
func (w *fileWorkload) input(seed uint64, buf *bytes.Buffer, st *setupTimes) (*trace.File, error) {
	gen, err := w.generator(seed)
	if err != nil {
		return nil, err
	}
	buf.Reset()
	buf.Grow(16 << 20)
	enc := trace.NewV2Writer(buf)
	batch := make([]trace.Ref, 8192)
	for {
		t0 := time.Now()
		n, rerr := gen.Read(batch)
		t1 := time.Now()
		if n > 0 {
			if err := enc.Write(batch[:n]); err != nil {
				return nil, fmt.Errorf("encoding trace: %w", err)
			}
		}
		if st != nil {
			st.gen += t1.Sub(t0)
			st.encode += time.Since(t1)
		}
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			return nil, fmt.Errorf("generating trace: %w", rerr)
		}
	}
	t0 := time.Now()
	if err := enc.Flush(); err != nil {
		return nil, fmt.Errorf("encoding trace: %w", err)
	}
	if st != nil {
		st.encode += time.Since(t0)
	}
	f, err := trace.NewFileBytes(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("opening trace: %w", err)
	}
	if f.Refs() != traceRefs {
		return nil, fmt.Errorf("trace holds %d references, want %d", f.Refs(), traceRefs)
	}
	return f, nil
}

// fused runs one fused simulation pass over f: sim.Run for a serial
// workload, engine.RunSharded for a sharded one (which builds its
// simulators inside the pass, so sim is nil). The sharded pass runs on
// a one-worker engine, so its shards run one after another: the host's
// two vCPUs do not always run in parallel, and a pass whose wall time
// depends on whether they do measures the host, not the simulator.
func (w *fileWorkload) fused(ctx context.Context, f *trace.File, sim *core.Simulator) (*core.Result, engine.Stats, error) {
	if w.shards <= 1 {
		res, err := sim.Run(ctx, f.Reader())
		return res, engine.Stats{}, err
	}
	e := engine.New(1)
	plan := engine.ShardPlan{Shards: w.shards, Warmup: w.warmup}
	res, err := engine.RunSharded(e, ctx, f, 0, plan, w.name, func() (*core.Simulator, error) {
		return w.pipe.simulator(), nil
	})
	return res, e.Stats(), err
}

// fingerprint renders a result's deterministic counters: references,
// instructions, per-TLB hits, misses and invalidations by size class,
// promotions and demotions by class, page-table and walk counters and
// the working-set average. Two passes simulated the same program iff
// their fingerprints are equal.
func fingerprint(r *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "refs=%d instrs=%d\n", r.Refs, r.Instrs)
	for i, t := range r.TLBs {
		s := t.Stats
		fmt.Fprintf(&b, "tlb%d accesses=%d inval=%d hits=%v misses=%v\n",
			i, s.Accesses, s.Invalidations, s.HitsByClass[:max(s.Classes, 2)], s.MissesByClass[:max(s.Classes, 2)])
	}
	if p := r.PolicyStats; p != nil {
		fmt.Fprintf(&b, "policy %+v\n", *p)
	}
	if p := r.LadderStats; p != nil {
		fmt.Fprintf(&b, "ladder %+v\n", *p)
	}
	if p := r.PageTable; p != nil {
		fmt.Fprintf(&b, "pagetable %+v\n", *p)
	}
	if p := r.Walk; p != nil {
		fmt.Fprintf(&b, "walk %+v\n", *p)
	}
	if p := r.WSS; p != nil {
		fmt.Fprintf(&b, "wss avg_bytes=%v samples=%d\n", p.AvgBytes, p.Samples)
	}
	return b.String()
}

// diffLines names the first line where two fingerprints disagree.
func diffLines(got, want string) string {
	g, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(wl); i++ {
		var a, b string
		if i < len(g) {
			a = g[i]
		}
		if i < len(wl) {
			b = wl[i]
		}
		if a != b {
			return fmt.Sprintf("got %q, want %q", a, b)
		}
	}
	return "fingerprints equal"
}
