package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/pagetable"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/walk"
	"twopage/internal/window"
	"twopage/internal/wss"
)

// layerTimes accumulates the staged replay's self time per layer.
type layerTimes struct {
	decode     time.Duration // trace: MapReader.Read
	window     time.Duration // window: standalone Tracker.StepVA replay
	assign     time.Duration // policy: Assign, window step included
	access     time.Duration // tlb: Access
	invalidate time.Duration // tlb: Invalidate sweeps of promotions and demotions
	lookup     time.Duration // pagetable: Lookup and demand Map on first-TLB misses
	remap      time.Duration // pagetable: Promote, Map and Demote on events
	walk       time.Duration // walk: Walk on misses, FlushPWC on events
	wssAssign  time.Duration // wss: Assign with the observer's window hooks, plus Observe
}

func (t *layerTimes) add(o layerTimes) {
	t.decode += o.decode
	t.window += o.window
	t.assign += o.assign
	t.access += o.access
	t.invalidate += o.invalidate
	t.lookup += o.lookup
	t.remap += o.remap
	t.walk += o.walk
	t.wssAssign += o.wssAssign
}

// total is the replay's summed layer time (the WSS stage counted by its
// self time, its Assign share excluded).
func (t layerTimes) total() time.Duration {
	return t.decode + t.assign + t.access + t.invalidate + t.lookup + t.remap + t.walk + t.wssSelf()
}

// wssSelf is the working-set layer's self time: the WSS stage re-runs
// Assign on a second policy carrying the observer's window hooks, so
// the plain Assign time of the same batches is subtracted.
func (t layerTimes) wssSelf() time.Duration {
	if t.wssAssign == 0 {
		return 0
	}
	return t.wssAssign - t.assign
}

// layerCounts are the replay's exact work counts.
type layerCounts struct {
	refs, events, walks uint64
}

// replay drives one simulator configuration through the hot loop one
// layer at a time per batch, calling only the layers' public functions:
//
//  1. decode the batch;
//  2. Assign every reference, keeping the policy.Results (the window is
//     also stepped on its own, standalone tracker to time it);
//  3. TLB invalidations and accesses, in reference order;
//  4. page-table remaps, lookups and demand maps for events and
//     first-TLB misses, then the walk model's flushes and walks, in
//     order;
//  5. working-set observation.
//
// The order is exact because no stage reads state a later stage
// writes: the policy never sees the TLBs, the TLBs never see the page
// table, and the walker sees only the lookups' level counts. The WSS
// observer reads the policy window as it stands right after each
// Assign, so stage 5 drives a second, identical policy that carries the
// observer, reference by reference. The page-table steps mirror core's
// shadow (bump frame allocator, promote-else-map, demote into fresh
// frames); the equivalence check against the fused pass proves the
// mirror exact.
type replay struct {
	pol     policy.Assigner
	classes addr.SizeClasses
	tlbs    []*tlb.SetAssoc
	win     *window.Tracker // standalone window replay (nil for single-size)

	nt     *pagetable.NTable // page-table shadow (nil without the walk model)
	next   addr.PN           // bump frame allocator, as in core's shadow
	frames []addr.PN
	walker *walk.Walker

	wssPol  *policy.TwoSize
	wssCalc *wss.TwoSize

	// per-batch scratch: policy results, the indices of references with
	// an event or a first-TLB miss, and each one's walk levels (-1 marks
	// a miss stage 4 has not looked up yet, 0 a hit)
	res    []policy.Result
	todo   []int
	levels []int

	times    layerTimes
	counts   layerCounts // measured references only, warm-up excluded
	counting bool
	instrs   uint64
}

func newReplay(p pipeline) (*replay, error) {
	r := &replay{
		pol:    p.newPolicy(),
		res:    make([]policy.Result, 8192),
		levels: make([]int, 8192),
		next:   1,
	}
	for _, c := range p.tlbs {
		t, err := tlb.New(c)
		if err != nil {
			return nil, err
		}
		r.tlbs = append(r.tlbs, t)
	}
	if mp, ok := r.pol.(policy.MultiSize); ok {
		r.classes = mp.SizeClasses()
	}
	switch pol := r.pol.(type) {
	case *policy.TwoSize:
		r.win = window.NewWithChunkShift(pol.Window().T(), pol.Window().ChunkShift())
	case *policy.Ladder:
		r.win = window.NewWithChunkShift(pol.Window().T(), pol.Window().ChunkShift())
	}
	if p.walk {
		r.nt = pagetable.NewNTable(r.classes)
		w, err := walk.New(walkConfig(r.classes))
		if err != nil {
			return nil, err
		}
		r.walker = w
	}
	if p.wss {
		pol, ok := p.newPolicy().(*policy.TwoSize)
		if !ok {
			return nil, fmt.Errorf("the working-set observer needs a two-size policy")
		}
		r.wssPol, r.wssCalc = pol, wss.NewTwoSize(pol)
	}
	return r, nil
}

// drain replays a whole reader. Warm-up replays pass count=false: their
// layer times still accrue (the fused warm-up does the same work), but
// references and instructions are not counted.
func (r *replay) drain(ctx context.Context, rd trace.Reader, count bool) error {
	r.counting = count
	buf := make([]trace.Ref, 8192)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		n, err := rd.Read(buf)
		r.times.decode += time.Since(t0)
		if n > 0 {
			batch := buf[:n]
			if r.counting {
				r.counts.refs += uint64(n)
				for _, ref := range batch {
					if ref.Kind == trace.Instr {
						r.instrs++
					}
				}
			}
			r.batch(batch)
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// batch runs the five stages over one batch.
func (r *replay) batch(batch []trace.Ref) {
	res := r.res[:len(batch)]

	// Stage 2: the window alone, then Assign with its window step.
	if r.win != nil {
		t0 := time.Now()
		for i := range batch {
			r.win.StepVA(batch[i].Addr)
		}
		r.times.window += time.Since(t0)
	}
	t0 := time.Now()
	switch pol := r.pol.(type) {
	case *policy.TwoSize:
		for i := range batch {
			res[i] = pol.Assign(batch[i].Addr)
		}
	case *policy.Ladder:
		for i := range batch {
			res[i] = pol.Assign(batch[i].Addr)
		}
	case *policy.Single:
		for i := range batch {
			res[i] = pol.Assign(batch[i].Addr)
		}
	default:
		for i := range batch {
			res[i] = r.pol.Assign(batch[i].Addr)
		}
	}
	r.times.assign += time.Since(t0)

	// Stage 3: TLB invalidation sweeps (timed per event) and accesses.
	r.todo = r.todo[:0]
	var inval time.Duration
	t0 = time.Now()
	for i := range batch {
		if res[i].Event != policy.EventNone {
			e0 := time.Now()
			r.invalidate(res[i])
			inval += time.Since(e0)
			if r.counting {
				r.counts.events++
			}
			r.todo = append(r.todo, i)
		}
		va, pg := batch[i].Addr, res[i].Page
		hit := r.tlbs[0].Access(va, pg)
		for _, t := range r.tlbs[1:] {
			t.Access(va, pg)
		}
		if !hit {
			if r.counting {
				r.counts.walks++
			}
			if len(r.todo) == 0 || r.todo[len(r.todo)-1] != i {
				r.todo = append(r.todo, i)
			}
			r.levels[i] = -1 // marks a first-TLB miss for stage 4
		} else {
			r.levels[i] = 0
		}
	}
	r.times.access += time.Since(t0) - inval
	r.times.invalidate += inval

	if r.nt != nil {
		// Stage 4a: the page table (remaps timed per event).
		var remap time.Duration
		t0 = time.Now()
		for _, i := range r.todo {
			if res[i].Event != policy.EventNone {
				e0 := time.Now()
				r.remap(res[i])
				remap += time.Since(e0)
			}
			if r.levels[i] < 0 {
				va := batch[i].Addr
				pte, w := r.nt.Lookup(va)
				r.levels[i] = w.Levels
				if !pte.Valid {
					_ = r.nt.Map(r.classOf(res[i].Page.Shift), res[i].Page.Number, r.alloc())
				}
			}
		}
		r.times.lookup += time.Since(t0) - remap
		r.times.remap += remap

		// Stage 4b: the walk model.
		t0 = time.Now()
		for _, i := range r.todo {
			if res[i].Event != policy.EventNone {
				r.walker.FlushPWC()
			}
			if r.levels[i] > 0 {
				r.walker.Walk(batch[i].Addr, r.levels[i])
			}
		}
		r.times.walk += time.Since(t0)
	}

	// Stage 5: the working-set observer on its own policy.
	if r.wssCalc != nil {
		t0 = time.Now()
		for i := range batch {
			r.wssCalc.Observe(r.wssPol.Assign(batch[i].Addr))
		}
		r.times.wssAssign += time.Since(t0)
	}
}

// invalidate performs the TLB maintenance of one transition: a
// promotion into class L drops every smaller-class entry under the
// region, a demotion the class-L entry itself.
func (r *replay) invalidate(res policy.Result) {
	level := max(res.Level, 1)
	switch res.Event {
	case policy.EventPromote:
		for j := 0; j < level; j++ {
			shift := r.classes.Shift(j)
			per := addr.PN(1) << (r.classes.Shift(level) - shift)
			first := res.Chunk * per
			for i := addr.PN(0); i < per; i++ {
				p := policy.Page{Number: first + i, Shift: shift}
				for _, t := range r.tlbs {
					t.Invalidate(p)
				}
			}
		}
	case policy.EventDemote:
		p := policy.Page{Number: res.Chunk, Shift: r.classes.Shift(level)}
		for _, t := range r.tlbs {
			t.Invalidate(p)
		}
	}
}

// remap mirrors one transition into the page table.
func (r *replay) remap(res policy.Result) {
	level := max(res.Level, 1)
	switch res.Event {
	case policy.EventPromote:
		if _, _, err := r.nt.Promote(level, res.Chunk, r.alloc()); err != nil {
			_ = r.nt.Map(level, res.Chunk, r.alloc())
		}
	case policy.EventDemote:
		r.frames = r.frames[:0]
		for i := 0; i < r.classes.Fanout(level); i++ {
			r.frames = append(r.frames, r.alloc())
		}
		_, _ = r.nt.Demote(level, res.Chunk, r.frames)
	}
}

func (r *replay) alloc() addr.PN {
	f := r.next
	r.next++
	return f
}

func (r *replay) classOf(shift uint) int {
	for k := 0; k < r.classes.N(); k++ {
		if r.classes.Shift(k) == shift {
			return k
		}
	}
	return 0
}

// snapshot is the replay's counter state, for subtracting a warm-up.
type snapshot struct {
	tlbs   []tlb.Stats
	ladder policy.LadderStats
	two    policy.TwoSizeStats
	pt     pagetable.Stats
	walk   walk.Stats
}

func (r *replay) snapshot() snapshot {
	var s snapshot
	for _, t := range r.tlbs {
		s.tlbs = append(s.tlbs, t.Stats())
	}
	switch pol := r.pol.(type) {
	case *policy.TwoSize:
		s.two = pol.Stats()
	case *policy.Ladder:
		s.ladder = pol.Stats()
	}
	if r.nt != nil {
		s.pt = r.nt.Stats()
		s.walk = r.walker.Stats()
	}
	return s
}

// result assembles the counters a fused pass would report, less the
// warm-up snapshot. Derived ratios are left out: the equivalence check
// compares counters only.
func (r *replay) result(warm *snapshot) *core.Result {
	out := &core.Result{Policy: r.pol.Name(), Refs: r.counts.refs, Instrs: r.instrs}
	for i, t := range r.tlbs {
		st := t.Stats()
		if warm != nil {
			st.Sub(warm.tlbs[i])
		}
		out.TLBs = append(out.TLBs, core.TLBResult{Name: t.Name(), Stats: st})
	}
	switch pol := r.pol.(type) {
	case *policy.TwoSize:
		st := pol.Stats()
		if warm != nil {
			st.Sub(warm.two)
		}
		out.PolicyStats = &st
	case *policy.Ladder:
		st := pol.Stats()
		if warm != nil {
			st.Sub(warm.ladder)
		}
		out.LadderStats = &st
	}
	if r.nt != nil {
		pt, ws := r.nt.Stats(), r.walker.Stats()
		if warm != nil {
			pt.Sub(warm.pt)
			ws.Sub(warm.walk)
		}
		out.PageTable, out.Walk = &pt, &ws
	}
	if r.wssCalc != nil {
		res := r.wssCalc.Result()
		out.WSS = &res
	}
	return out
}

// replayRun is one staged replay of a whole trace, sharded like the
// fused pass.
type replayRun struct {
	result *core.Result
	times  layerTimes
	counts layerCounts
	merge  time.Duration // core.MergeResults over the shard results
	wall   time.Duration
}

// replayFile replays f the way the fused pass simulates it: serially,
// or in w.shards sections with each later section first warmed up on
// the references preceding it, the per-section results merged by
// core.MergeResults.
func (w *fileWorkload) replayFile(ctx context.Context, f *trace.File) (*replayRun, error) {
	start := time.Now()
	n := max(w.shards, 1)
	if n > f.Blocks() {
		n = f.Blocks()
	}
	var out replayRun
	parts := make([]*core.Result, n)
	for s := 0; s < n; s++ {
		r, err := newReplay(w.pipe)
		if err != nil {
			return nil, err
		}
		var warm *snapshot
		if s > 0 && w.warmup > 0 {
			if err := r.drain(ctx, f.Preroll(s, n, w.warmup), false); err != nil {
				return nil, err
			}
			snap := r.snapshot()
			warm = &snap
		}
		var rd trace.Reader = f.Reader()
		if n > 1 {
			rd = f.Section(s, n)
		}
		if err := r.drain(ctx, rd, true); err != nil {
			return nil, err
		}
		parts[s] = r.result(warm)
		out.times.add(r.times)
		out.counts.refs += r.counts.refs
		out.counts.events += r.counts.events
		out.counts.walks += r.counts.walks
	}
	t0 := time.Now()
	out.result = core.MergeResults(parts)
	out.merge = time.Since(t0)
	out.wall = time.Since(start)
	return &out, nil
}
