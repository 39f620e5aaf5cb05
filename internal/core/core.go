// Package core wires the pieces together: it drives a reference stream
// through a page-size assignment policy and one or more TLB models,
// optionally tracking the working-set size of the dynamic two-page
// scheme, and reports the paper's metrics (CPI_TLB, MPI, miss ratio).
//
// This is the package the examples and the experiment harness build on.
// Typical use:
//
//	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(1_000_000))
//	sim := core.NewSimulator(pol, tlb.NewFullyAssoc(16))
//	res, err := sim.Run(ctx, workload.MustNew("matrix300", 0))
//	fmt.Println(res.TLBs[0].CPITLB)
//
// Simulating several TLB configurations against the same policy shares
// one trace-generation and policy pass, mirroring the paper's use of
// all-associativity simulation to evaluate many configurations at once
// (Section 3.3); for sweeps over associativity itself see
// internal/allassoc.
package core

import (
	"context"
	"fmt"

	"twopage/internal/addr"
	"twopage/internal/metrics"
	"twopage/internal/obs"
	"twopage/internal/pagetable"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/walk"
	"twopage/internal/wss"
)

// TLBResult holds one simulated TLB's counters and derived metrics.
type TLBResult struct {
	Name        string    // TLB organization, e.g. "16-entry 2-way (exact index)"
	Stats       tlb.Stats // raw counters
	MissPenalty float64   // cycles per miss used for CPI
	MPI         float64   // misses per instruction
	CPITLB      float64   // MPI × MissPenalty (the paper's headline metric)
	MissRatio   float64   // misses per reference
}

// Result is the outcome of one simulation pass.
type Result struct {
	Policy string // policy name, e.g. "4KB" or "4KB/32KB"
	Refs   uint64 // references simulated
	Instrs uint64 // instruction fetches (for per-instruction metrics)
	RPI    float64
	TLBs   []TLBResult

	// WSS is the average working-set size of the two-page scheme, set
	// only when the simulator was built with WithWSS.
	WSS *wss.Result
	// PolicyStats holds promotion/demotion counters for TwoSize policies.
	PolicyStats *policy.TwoSizeStats
	// LadderStats holds per-class counters for N-level ladder and NAPOT
	// policies (nil for two-size and single-size runs).
	LadderStats *policy.LadderStats

	// PageTable holds the page-table shadow's counters, set only when
	// the simulator was built with WithPageTable.
	PageTable *pagetable.Stats
	// PTWalkCycles is the total modelled cost of the shadow's software
	// walks (zero without WithPageTable). Under WithWalkModel it is the
	// walker's integer cycle total, exactly.
	PTWalkCycles float64

	// Walk holds the modeled page-walk counters, set only when the
	// simulator was built with WithWalkModel. When present, the first
	// TLB's MissPenalty and CPITLB are emergent — recomputed from these
	// counters instead of the flat penalty constant.
	Walk *walk.Stats

	// Counters is the pass's run-report block (internal/obs): the TLB
	// split, policy transitions, and any trace-decode work, assembled
	// once after the drain loop completes.
	Counters obs.Counters
}

// Simulator drives references through a policy and a set of TLBs.
type Simulator struct {
	pol  policy.Assigner
	tlbs []tlb.TLB
	// The per-reference loop calls concrete types where it can: ladder
	// is the policy's *policy.Ladder (a TwoSize's own, or the policy
	// itself), nil for other policies; sa holds the TLBs when every one
	// is a *tlb.SetAssoc, nil otherwise. The rest go through pol and
	// tlbs.
	ladder      *policy.Ladder
	sa          []*tlb.SetAssoc
	missPenalty float64
	wssCalc     *wss.TwoSize
	classes     addr.SizeClasses // hierarchy of a MultiSize policy (zero for single-size)
	pt          *ptShadow        // page-table shadow (WithPageTable)
	walker      *walk.Walker     // modeled radix walk (WithWalkModel)
	ran         bool             // Run has been called; a Simulator is single-use

	// Warm-up baselines (see Warm): counter snapshots taken at the end
	// of the warm-up preroll, subtracted out of Run's results so only
	// the section's own activity is reported.
	warmed     bool
	warmTLB    []tlb.Stats
	warmLadder *policy.LadderStats
	warmTwo    *policy.TwoSizeStats
	warmPT     pagetable.Stats
	warmPTCyc  float64
	warmWalk   walk.Stats
}

// Option configures a Simulator.
type Option func(*Simulator)

// WithMissPenalty overrides the miss penalty (cycles). By default a
// multi-size policy with n classes uses metrics.MissPenaltyN(n) — 25
// cycles for two sizes — and everything else metrics.MissPenaltySingle,
// per Sections 2.3/3.2.
func WithMissPenalty(cycles float64) Option {
	return func(s *Simulator) { s.missPenalty = cycles }
}

// WithWSS attaches a two-page working-set calculator. Only valid when
// the policy is a *policy.TwoSize; NewSimulator panics otherwise.
// For static page sizes use MeasureStaticWSS, which needs no TLB pass.
func WithWSS() Option {
	return func(s *Simulator) {
		pol, ok := s.pol.(*policy.TwoSize)
		if !ok {
			panic("core: WithWSS requires a TwoSize policy")
		}
		s.wssCalc = wss.NewTwoSize(pol)
	}
}

// WithPageTable attaches a software page-table shadow: every miss of
// the first TLB walks an NTable kept consistent with the policy's
// promotion/demotion decisions (demand-mapping unmapped pages from a
// deterministic bump frame allocator), charging the pagetable package's
// handler cost model per walk. Requires a MultiSize policy and at least
// one TLB; NewSimulator panics otherwise. Results gain PageTable stats
// and PTWalkCycles; the shadow's tables are plain shard-local state, so
// sharded runs merge it like every other counter block.
func WithPageTable() Option {
	return func(s *Simulator) {
		mp, ok := s.pol.(policy.MultiSize)
		if !ok {
			panic("core: WithPageTable requires a MultiSize policy")
		}
		if len(s.tlbs) == 0 {
			panic("core: WithPageTable requires at least one TLB")
		}
		s.pt = newPTShadow(mp.SizeClasses())
	}
}

// resolveWalkConfig fills the policy-derived defaults of a walk config:
// a zero Classes takes the policy's hierarchy, a zero BaseCycles the
// multi-size handler base. It rejects non-MultiSize policies (the walk
// needs the page-table shadow, which needs a size hierarchy) and a
// Classes that disagrees with the policy's.
func resolveWalkConfig(pol policy.Assigner, cfg walk.Config) (walk.Config, error) {
	mp, ok := pol.(policy.MultiSize)
	if !ok {
		return walk.Config{}, fmt.Errorf("core: the walk model requires a MultiSize policy, got %q", pol.Name())
	}
	if cfg.Classes.N() == 0 {
		cfg.Classes = mp.SizeClasses()
	} else if cfg.Classes != mp.SizeClasses() {
		return walk.Config{}, fmt.Errorf("core: walk classes %v disagree with policy classes %v", cfg.Classes, mp.SizeClasses())
	}
	if cfg.BaseCycles == 0 {
		cfg.BaseCycles = walk.HandlerBaseCycles(true)
	}
	return cfg, nil
}

// CheckWalkModel reports whether WithWalkModel(cfg) would succeed for
// the policy, as an error instead of a panic — the engine validates
// units with it before building simulators on worker goroutines.
func CheckWalkModel(pol policy.Assigner, cfg walk.Config) error {
	cfg, err := resolveWalkConfig(pol, cfg)
	if err != nil {
		return err
	}
	_, err = walk.New(cfg)
	return err
}

// WithWalkModel replaces the page-table shadow's flat per-walk charge
// with the modeled multi-level radix walk of internal/walk: every
// first-TLB miss descends the shadow's table, probing the MMU
// page-walk caches and charging each performed level load through the
// memory-side cache model. CPI_TLB becomes emergent — total walk
// cycles over instructions — instead of MPI × penalty, and the first
// TLB's reported MissPenalty is the measured cycles-per-walk.
//
// The option implies WithPageTable (attaching the shadow if absent)
// and therefore shares its requirements: a MultiSize policy and at
// least one TLB; NewSimulator panics otherwise (use CheckWalkModel to
// validate first). A zero cfg.Classes defaults to the policy's
// hierarchy; a zero cfg.BaseCycles to the multi-size handler base.
// Promotions and demotions flush the PWCs (the shootdown a remap
// forces); walker state is shard-local and its counters are integers,
// so sharded runs merge exactly.
func WithWalkModel(cfg walk.Config) Option {
	return func(s *Simulator) {
		resolved, err := resolveWalkConfig(s.pol, cfg)
		if err != nil {
			panic(err)
		}
		if len(s.tlbs) == 0 {
			panic("core: WithWalkModel requires at least one TLB")
		}
		if s.pt == nil {
			s.pt = newPTShadow(resolved.Classes)
		}
		s.walker = walk.MustNew(resolved)
	}
}

// NewSimulator builds a simulator for the policy and TLBs. The TLBs are
// all driven by the same policy decisions in a single pass.
func NewSimulator(pol policy.Assigner, tlbs []tlb.TLB, opts ...Option) *Simulator {
	s := &Simulator{pol: pol, tlbs: tlbs}
	switch p := pol.(type) {
	case *policy.Ladder:
		s.ladder = p
	case *policy.TwoSize:
		s.ladder = p.Ladder()
	}
	s.sa = make([]*tlb.SetAssoc, len(tlbs))
	for i, t := range tlbs {
		sa, ok := t.(*tlb.SetAssoc)
		if !ok {
			s.sa = nil
			break
		}
		s.sa[i] = sa
	}
	if mp, ok := pol.(policy.MultiSize); ok {
		s.classes = mp.SizeClasses()
		s.missPenalty = metrics.MissPenaltyN(s.classes.N())
	} else {
		s.missPenalty = metrics.MissPenaltySingle
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Warm replays a reference stream to build simulator state — TLB
// contents, policy window and mapped regions, page-table shadow, the
// two-page WSS calculator's incremental split — without contributing to
// the metrics Run will report. At the end of the stream every counter
// is snapshotted; Run subtracts the snapshots, so the reported counts
// cover exactly the post-warm-up references (integer subtraction,
// exact). Shard workers call Warm with a Preroll reader before running
// their section; the warm-up stream must immediately precede Run's.
//
// Warm may be called once, before Run. The working-set averages are
// untouched by design: WSS samples start at the first Run reference.
func (s *Simulator) Warm(ctx context.Context, r trace.Reader) error {
	if s.warmed {
		return fmt.Errorf("core: Warm called twice")
	}
	if s.ran {
		return fmt.Errorf("core: Warm called after Run")
	}
	//paperlint:hot
	_, err := trace.DrainContext(ctx, r, func(batch []trace.Ref) { s.step(batch, true) })
	if err != nil {
		return fmt.Errorf("core: warm-up failed: %w", err)
	}
	s.warmed = true
	s.warmTLB = make([]tlb.Stats, len(s.tlbs))
	for i, t := range s.tlbs {
		s.warmTLB[i] = t.Stats()
	}
	switch pol := s.pol.(type) {
	case *policy.TwoSize:
		st := pol.Stats()
		s.warmTwo = &st
	case interface{ Stats() policy.LadderStats }: // *policy.Ladder, *policy.Napot
		st := pol.Stats()
		s.warmLadder = &st
	}
	if s.pt != nil {
		s.warmPT = s.pt.nt.Stats()
		s.warmPTCyc = s.pt.cycles
	}
	if s.walker != nil {
		s.warmWalk = s.walker.Stats()
	}
	return nil
}

// Run consumes the reference stream to completion and returns metrics.
// A Simulator is single-use: Run may only be called once.
//
// Cancellation is checked between batches: when ctx is canceled the
// simulation stops mid-trace and Run returns the context's error.
func (s *Simulator) Run(ctx context.Context, r trace.Reader) (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("core: Run called twice")
	}
	s.ran = true
	var refs, instrs uint64
	//paperlint:hot
	_, err := trace.DrainContext(ctx, r, func(batch []trace.Ref) {
		refs += uint64(len(batch))
		for _, ref := range batch {
			if ref.Kind == trace.Instr {
				instrs++
			}
		}
		s.step(batch, false)
	})
	if err != nil {
		return nil, fmt.Errorf("core: simulation failed: %w", err)
	}
	out := &Result{
		Policy: s.pol.Name(),
		Refs:   refs,
		Instrs: instrs,
	}
	if instrs > 0 {
		out.RPI = float64(refs) / float64(instrs)
	}
	for i, t := range s.tlbs {
		st := t.Stats()
		if s.warmed {
			st.Sub(s.warmTLB[i])
		}
		mpi := metrics.MPI(st.Misses(), instrs)
		out.TLBs = append(out.TLBs, TLBResult{
			Name:        t.Name(),
			Stats:       st,
			MissPenalty: s.missPenalty,
			MPI:         mpi,
			CPITLB:      mpi * s.missPenalty,
			MissRatio:   st.MissRatio(),
		})
	}
	if s.wssCalc != nil {
		res := s.wssCalc.Result()
		out.WSS = &res
	}
	switch pol := s.pol.(type) {
	case *policy.TwoSize:
		st := pol.Stats()
		if s.warmTwo != nil {
			st.Sub(*s.warmTwo)
		}
		out.PolicyStats = &st
	case interface{ Stats() policy.LadderStats }: // *policy.Ladder, *policy.Napot
		st := pol.Stats()
		if s.warmLadder != nil {
			st.Sub(*s.warmLadder)
		}
		out.LadderStats = &st
	}
	if s.pt != nil {
		st := s.pt.nt.Stats()
		cyc := s.pt.cycles
		if s.warmed {
			st.Sub(s.warmPT)
			cyc -= s.warmPTCyc
		}
		out.PageTable = &st
		out.PTWalkCycles = cyc
	}
	if s.walker != nil {
		ws := s.walker.Stats()
		if s.warmed {
			ws.Sub(s.warmWalk)
		}
		out.Walk = &ws
		applyWalkResult(out)
	}
	out.Counters = resultCounters(out)
	out.Counters.Add(DecodeCounters(r))
	return out, nil
}

// step drives a batch of references through the pipeline. For each it
// assigns the page, carries out any transition, probes every TLB, walks
// the page-table shadow when the first TLB misses, and feeds the
// working-set calculator (warm keeps the reference out of its average).
// Run and Warm share it; it calls the concrete ladder and TLBs when
// NewSimulator resolved them.
//
//paperlint:hot
func (s *Simulator) step(batch []trace.Ref, warm bool) {
	ladder, sa := s.ladder, s.sa
	for _, ref := range batch {
		va := ref.Addr
		var res policy.Result
		if ladder != nil {
			res = ladder.Assign(va)
		} else {
			res = s.pol.Assign(va)
		}
		if res.Event != policy.EventNone {
			s.applyEvent(res) //paperlint:ignore hotalloc event path: page-table node alloc/free and error formatting run per promotion/demotion, not per reference
		}
		missed := false // the first TLB missed
		if sa != nil {
			for i, t := range sa {
				if !t.Access(va, res.Page) && i == 0 {
					missed = true
				}
			}
		} else {
			for i, t := range s.tlbs {
				if !t.Access(va, res.Page) && i == 0 {
					missed = true
				}
			}
		}
		if missed && s.pt != nil {
			s.ptMiss(va, res.Page)
		}
		if s.wssCalc != nil {
			if warm {
				s.wssCalc.ObserveWarm(res)
			} else {
				s.wssCalc.Observe(res)
			}
		}
	}
}

// resultCounters assembles the run-report counter block from a finished
// result's stats: one logical pass, the TLB counters, the policy's
// transitions, and the page-table and walk totals. Run and MergeResults
// share it, so a merged report is built exactly like a serial one. The
// decode counters are left to the caller: Run reads them from its
// reader, MergeResults sums them over the shards.
func resultCounters(out *Result) obs.Counters {
	c := obs.Counters{Passes: 1, Refs: out.Refs, Instrs: out.Instrs}
	for _, tr := range out.TLBs {
		c.Add(tr.Stats.Counters())
	}
	if ps := out.PolicyStats; ps != nil {
		c.Promotions = ps.Promotions
		c.Demotions = ps.Demotions
	}
	if ls := out.LadderStats; ls != nil {
		c.Promotions = ls.Promotions[1]
		c.Demotions = ls.Demotions[1]
		c.PromotionsSize2 = ls.Promotions[2]
		c.PromotionsSize3 = ls.Promotions[3]
		c.DemotionsSize2 = ls.Demotions[2]
		c.DemotionsSize3 = ls.Demotions[3]
	}
	if pt := out.PageTable; pt != nil {
		c.PTWalks = pt.Lookups
		c.Faults = pt.Misses
		c.CopiedBytes = pt.CopiedBytes
	}
	if ws := out.Walk; ws != nil {
		c.WalkCycles = ws.Cycles
		c.WalkLoads = ws.Loads()
		c.WalkPWCHits = ws.PWCHits()
		c.WalkPWCMisses = ws.PWCMisses()
		c.WalkMemHits = ws.MemHits
		c.WalkMemMisses = ws.MemMisses
	}
	return c
}

// applyWalkResult derives the walk-mode metrics from Result.Walk: the
// total walk cost replaces the shadow's flat charge, and the first TLB
// (the one whose misses trigger walks) reports the emergent penalty —
// measured cycles per walk — with CPI_TLB recomputed as total walk
// cycles over instructions. Run and MergeResults share it so a merged
// result is assembled exactly like a serial one.
func applyWalkResult(out *Result) {
	ws := out.Walk
	out.PTWalkCycles = float64(ws.Cycles)
	if len(out.TLBs) == 0 {
		return
	}
	out.TLBs[0].MissPenalty = ws.CyclesPerWalk()
	out.TLBs[0].CPITLB = 0
	if out.Instrs > 0 {
		out.TLBs[0].CPITLB = float64(ws.Cycles) / float64(out.Instrs)
	}
}

// DecodeCounters harvests a reader's trace-decode counters into a
// run-report block; readers without decode accounting (generators,
// slice readers) contribute zero.
func DecodeCounters(r trace.Reader) obs.Counters {
	dc, ok := r.(trace.DecodeCounter)
	if !ok {
		return obs.Counters{}
	}
	ds := dc.DecodeStats()
	return obs.Counters{
		DecodedRefs:   ds.Refs,
		DecodedBlocks: ds.Blocks,
		DecodedBytes:  ds.Bytes,
	}
}

// applyEvent performs the TLB maintenance a real OS would: promotion
// into class L invalidates every smaller-class entry under the region
// (the eight small pages of a chunk, in the two-size case), demotion
// the class-L entry itself. The cycle cost of this is folded into the
// multi-size miss penalty, as in the paper (Section 3.4).
func (s *Simulator) applyEvent(res policy.Result) {
	level := res.Level
	if level <= 0 {
		level = 1
	}
	if s.pt != nil {
		s.pt.apply(level, res)
	}
	if s.walker != nil {
		// The remapped region's interior descriptors changed shape; a
		// real MMU shoots down its paging-structure caches.
		s.walker.FlushPWC()
	}
	switch res.Event {
	case policy.EventPromote:
		for j := 0; j < level; j++ {
			shift := s.classes.Shift(j)
			per := addr.PN(1) << (s.classes.Shift(level) - shift)
			first := res.Chunk * per
			for i := addr.PN(0); i < per; i++ {
				p := policy.Page{Number: first + i, Shift: shift}
				for _, t := range s.tlbs {
					t.Invalidate(p)
				}
			}
		}
	case policy.EventDemote:
		p := policy.Page{Number: res.Chunk, Shift: s.classes.Shift(level)}
		for _, t := range s.tlbs {
			t.Invalidate(p)
		}
	}
}

// MeasureStaticWSS computes average working-set sizes for a set of
// static page sizes over a reference stream in one pass, no TLBs
// involved (the Section 4 experiments).
func MeasureStaticWSS(ctx context.Context, r trace.Reader, T uint64, sizes ...addr.PageSize) ([]wss.Result, error) {
	shifts := make([]uint, len(sizes))
	for i, s := range sizes {
		if !s.Valid() {
			return nil, fmt.Errorf("core: invalid page size %d", s)
		}
		shifts[i] = s.Shift()
	}
	calc := wss.NewStatic(T, shifts...)
	_, err := trace.DrainContext(ctx, r, func(batch []trace.Ref) {
		for _, ref := range batch {
			calc.Step(ref.Addr)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("core: WSS pass failed: %w", err)
	}
	return calc.Finish(), nil
}

// MeasureTwoSizeWSS computes the average working-set size of the dynamic
// 4KB/32KB scheme over a reference stream, without simulating TLBs.
func MeasureTwoSizeWSS(ctx context.Context, r trace.Reader, cfg policy.TwoSizeConfig) (wss.Result, policy.TwoSizeStats, error) {
	pol := policy.NewTwoSize(cfg)
	calc := wss.NewTwoSize(pol)
	_, err := trace.DrainContext(ctx, r, func(batch []trace.Ref) {
		for _, ref := range batch {
			calc.Observe(pol.Assign(ref.Addr))
		}
	})
	if err != nil {
		return wss.Result{}, policy.TwoSizeStats{}, fmt.Errorf("core: WSS pass failed: %w", err)
	}
	return calc.Result(), pol.Stats(), nil
}
