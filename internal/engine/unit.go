package engine

import (
	"context"
	"fmt"
	"strings"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/obs"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/walk"
	"twopage/internal/workload"
	"twopage/internal/wss"
)

// PolicySpec declaratively describes a page-size assignment policy, so
// that a simulation pass can be keyed and memoized. Exactly one of the
// three forms is used: Single (nonzero) selects the fixed-size
// baseline, a Ladder with at least two size classes selects the N-level
// promotion ladder, otherwise Two selects the paper's dynamic policy.
type PolicySpec struct {
	// Single, when nonzero, is the fixed page size.
	Single addr.PageSize
	// Two is the dynamic two-size configuration used when Single is
	// zero and Ladder is unset. Its DenyPromotion hook must be nil: a
	// function cannot be part of a memoization key (use an opaque Go
	// task for veto policies).
	Two policy.TwoSizeConfig
	// Ladder, when its Classes field names at least two sizes, is the
	// N-level promotion-ladder configuration. Its Deny hook must be nil
	// for the same reason as Two.DenyPromotion.
	Ladder policy.LadderConfig
}

// SinglePolicy returns the spec for the fixed-size policy.
func SinglePolicy(size addr.PageSize) PolicySpec { return PolicySpec{Single: size} }

// TwoSizePolicy returns the spec for the dynamic two-size policy.
func TwoSizePolicy(cfg policy.TwoSizeConfig) PolicySpec { return PolicySpec{Two: cfg} }

// LadderPolicy returns the spec for the N-level promotion ladder.
func LadderPolicy(cfg policy.LadderConfig) PolicySpec { return PolicySpec{Ladder: cfg} }

// New instantiates the policy.
func (p PolicySpec) New() (policy.Assigner, error) {
	if p.Single != 0 {
		if !p.Single.Valid() {
			return nil, fmt.Errorf("engine: invalid page size %d", p.Single)
		}
		return policy.NewSingle(addr.MustPow2(p.Single)), nil
	}
	if p.Ladder.Classes.N() >= 2 {
		if p.Ladder.Deny != nil {
			return nil, fmt.Errorf("engine: Deny hooks cannot be memoized; use an opaque task")
		}
		if p.Ladder.T <= 0 {
			return nil, fmt.Errorf("engine: ladder policy needs T > 0")
		}
		return policy.NewLadder(p.Ladder), nil
	}
	if p.Two.DenyPromotion != nil {
		return nil, fmt.Errorf("engine: DenyPromotion hooks cannot be memoized; use an opaque task")
	}
	if p.Two.T <= 0 {
		return nil, fmt.Errorf("engine: two-size policy needs T > 0")
	}
	return policy.NewTwoSize(p.Two), nil
}

func (p PolicySpec) key() string {
	if p.Single != 0 {
		return fmt.Sprintf("single:%d", p.Single)
	}
	if p.Ladder.Classes.N() >= 2 {
		var b strings.Builder
		fmt.Fprintf(&b, "ladder:T=%d,sc=", p.Ladder.T)
		for i, s := range p.Ladder.Classes.Shifts() {
			if i > 0 {
				b.WriteByte('-')
			}
			fmt.Fprintf(&b, "%d", s)
		}
		b.WriteString(",thr=")
		for i, t := range p.Ladder.Thresholds {
			if i > 0 {
				b.WriteByte('-')
			}
			fmt.Fprintf(&b, "%d", t)
		}
		fmt.Fprintf(&b, ",dem=%t", p.Ladder.Demote)
		return b.String()
	}
	return fmt.Sprintf("two:T=%d,thr=%d,dem=%t,ls=%d",
		p.Two.T, p.Two.Threshold, p.Two.Demote, p.Two.LargeShift)
}

// Unit is one memoizable unit of simulation work: one workload trace
// driven through one policy and at most one TLB configuration. The
// Unit is the engine's memo key and scheduling record: experiments that
// share a (workload, refs, policy, TLB-config) tuple get one result per
// Engine, no matter how their multi-TLB passes were originally grouped.
// What executes is a fused pass: a worker that takes a two-size or
// ladder unit also claims every queued unit of the same (workload,
// refs, policy) and drives all their TLBs through one trace and policy
// pass (see Pass).
type Unit struct {
	// Workload is the registered program name (workload.Get).
	Workload string
	// Refs is the trace length.
	Refs uint64
	// Policy assigns page sizes.
	Policy PolicySpec
	// TLB is the simulated TLB configuration; nil means a policy/WSS
	// pass with no TLB.
	TLB *tlb.Config
	// WSS attaches the two-page working-set calculator (requires a
	// two-size policy).
	WSS bool
	// Walk, when set, replaces the flat miss penalty with the modeled
	// multi-level page walk (core.WithWalkModel). Requires a MultiSize
	// policy and a TLB.
	Walk *walk.Config
}

// Key returns the memoization key. TLB configurations are normalized
// first so equivalent spellings (Ways 0 vs Ways == Entries, default
// shifts) share a unit.
func (u Unit) Key() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "w=%s refs=%d pol=%s wss=%t", u.Workload, u.Refs, u.Policy.key(), u.WSS)
	if u.TLB != nil {
		frag, err := u.TLB.Key()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, " tlb=%s", frag)
	}
	if u.Walk != nil {
		frag, err := u.Walk.Key()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, " walk=%s", frag)
	}
	return b.String(), nil
}

// fuseGroup names the units that may share one simulation pass: the
// (workload, refs, policy) of a two-size or ladder unit without a walk
// model. The TLB and the WSS flag are left out on purpose — they are
// what a fused pass fans out over — so this is not a memo key. Every
// other unit (single-size, walk) is a group of one, named by its key:
// a single-size pass is so cheap per reference that fusing it only
// lengthens the batches of the pass it joins, and the walk model hangs
// off the first TLB of a pass.
func (u Unit) fuseGroup(key string) string {
	if u.Policy.Single != 0 || u.Walk != nil {
		return key
	}
	return fmt.Sprintf("fuse w=%s refs=%d pol=%s", u.Workload, u.Refs, u.Policy.key())
}

// newSimulator builds a fresh simulator for the units of one fuse
// group: their policy, each unit's TLB in unit order, the WSS
// calculator when any unit asks for it, and the walk model of a walk
// unit (always a group of one). Every call builds its own instances, so
// shard workers running the same unit in parallel share nothing.
func newSimulator(units []Unit) (*core.Simulator, error) {
	pol, err := units[0].Policy.New()
	if err != nil {
		return nil, err
	}
	var tlbs []tlb.TLB
	withWSS := false
	for _, u := range units {
		if u.TLB != nil {
			t, err := tlb.New(*u.TLB)
			if err != nil {
				return nil, err
			}
			tlbs = append(tlbs, t)
		}
		withWSS = withWSS || u.WSS
	}
	var opts []core.Option
	if withWSS {
		opts = append(opts, core.WithWSS())
	}
	if u := units[0]; u.Walk != nil {
		if u.TLB == nil {
			return nil, fmt.Errorf("engine: a walk-model unit needs a TLB")
		}
		// Validate as an error here: WithWalkModel panics on a bad
		// config, and a panic on a pool worker would take the whole
		// engine down instead of failing the one unit.
		if err := core.CheckWalkModel(pol, *u.Walk); err != nil {
			return nil, err
		}
		opts = append(opts, core.WithWalkModel(*u.Walk))
	}
	return core.NewSimulator(pol, tlbs, opts...), nil
}

// runFused executes the units of one fuse group as one pass and returns
// each unit's result exactly as a pass of that unit alone would: a lone
// unit's result as is, otherwise the pass split by core.Result.Part.
// An error is every unit's: the units share workload, policy and trace,
// and their TLB configs already normalized when Pass keyed them.
func runFused(ctx context.Context, units []Unit) ([]*core.Result, error) {
	s, err := workload.Get(units[0].Workload)
	if err != nil {
		return nil, err
	}
	sim, err := newSimulator(units)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(ctx, s.New(units[0].Refs))
	if err != nil {
		return nil, err
	}
	if len(units) == 1 {
		return []*core.Result{res}, nil
	}
	parts := make([]*core.Result, len(units))
	next := 0 // the pass's TLBs are the units' TLBs in unit order
	for i, u := range units {
		ti := -1
		if u.TLB != nil {
			ti = next
			next++
		}
		parts[i] = res.Part(ti, u.WSS)
	}
	return parts, nil
}

// queuedUnit is a submitted unit that has not started: it waits in its
// fuse group for a pool slot, its own or a claiming worker's.
type queuedUnit struct {
	u      Unit
	key    string
	group  string
	ctx    context.Context // the submitter's
	f      *Future[*core.Result]
	shared *Future[any] // the memo entry

	// claimed is set under Engine.mu, and wake closed, when a worker
	// takes the unit into its pass.
	claimed bool
	wake    chan struct{}
}

// submitUnit memoizes u under key and queues it in its fuse group. The
// unit's goroutine then waits for a slot; whichever unit of the group
// gets one first claims the whole queued group and runs it as one pass
// (runGroup). Memo hits, events and eviction on failure behave as for
// any keyed unit.
func (e *Engine) submitUnit(ctx context.Context, u Unit, key string) *Future[*core.Result] {
	e.submitted.Add(1)
	e.mu.Lock()
	if cached, ok := e.passes[key]; ok {
		e.mu.Unlock()
		e.hits.Add(1)
		return adapt[*core.Result](ctx, key, e, cached)
	}
	q := &queuedUnit{
		u: u, key: key, group: u.fuseGroup(key), ctx: ctx,
		f: newFuture[*core.Result](), shared: newFuture[any](),
		wake: make(chan struct{}),
	}
	e.passes[key] = q.shared
	e.queued[q.group] = append(e.queued[q.group], q)
	e.mu.Unlock()
	go e.await(q)
	return q.f
}

// await waits for a pool slot on q's behalf. With the slot it claims
// q's group and runs it; if another worker claims q first, that worker
// settles it; if q's submitter gives up while q is still queued, q
// fails with the context's error.
func (e *Engine) await(q *queuedUnit) {
	select {
	case e.sem <- struct{}{}:
	case <-q.wake:
		return
	case <-q.ctx.Done():
		e.mu.Lock()
		if q.claimed {
			e.mu.Unlock()
			return
		}
		e.dequeueLocked(q)
		e.mu.Unlock()
		e.settle(q, nil, q.ctx.Err())
		return
	}
	defer e.release()
	e.mu.Lock()
	if q.claimed {
		e.mu.Unlock()
		return
	}
	group := e.queued[q.group]
	delete(e.queued, q.group)
	for _, o := range group {
		o.claimed = true
		close(o.wake)
	}
	e.mu.Unlock()
	e.runGroup(q, group)
}

// dequeueLocked removes q from its group. The caller holds e.mu.
func (e *Engine) dequeueLocked(q *queuedUnit) {
	group := e.queued[q.group]
	for i, o := range group {
		if o == q {
			group = append(group[:i], group[i+1:]...)
			break
		}
	}
	if len(group) == 0 {
		delete(e.queued, q.group)
	} else {
		e.queued[q.group] = group
	}
}

// runGroup runs the claimed group as one pass under the claimer's
// context and settles each unit. If that context was canceled, the
// claimed units whose own submitters are still live run again, as a
// group of their own on the same slot, so one submitter's cancellation
// never fails another's units.
func (e *Engine) runGroup(claimer *queuedUnit, group []*queuedUnit) {
	ctx := claimer.ctx
	units := make([]Unit, len(group))
	for i, q := range group {
		units[i] = q.u
	}
	parts, err := runFused(ctx, units)
	var live []*queuedUnit
	for i, q := range group {
		switch {
		case err == nil:
			e.settle(q, parts[i], nil)
		case q != claimer && ctx.Err() != nil && q.ctx.Err() == nil:
			live = append(live, q)
			continue
		default:
			e.settle(q, nil, err)
		}
		if q != claimer {
			e.fused.Add(1)
		}
	}
	if len(live) > 0 {
		e.runGroup(live[0], live)
	}
}

// settle completes a unit: on success it records the counters and
// publishes the result to the submitter and the memo entry; on failure
// it evicts the entry so a later submission retries.
func (e *Engine) settle(q *queuedUnit, res *core.Result, err error) {
	defer close(q.shared.done)
	defer close(q.f.done)
	if err != nil {
		q.f.err, q.shared.err = err, err
		e.evict(q.key)
		e.emit(q.key, false, err)
		return
	}
	e.Record(q.key, res.Counters)
	q.f.val, q.shared.val = res, res
	e.emit(q.key, false, nil)
}

// PassSpec describes a pass of one policy over one workload trace
// against any number of TLB configurations. The engine decomposes it
// into single-TLB Units so different experiments sharing any unit share
// the work, and merges the unit results back into one core.Result with
// the TLBs in the requested order.
type PassSpec struct {
	Workload string
	Refs     uint64
	Policy   PolicySpec
	// TLBs are the simulated configurations, in result order.
	TLBs []tlb.Config
	// WSS attaches the two-page working-set calculator.
	WSS bool
	// Walk, when set, runs every unit of the pass under the modeled
	// page walk instead of the flat miss penalty.
	Walk *walk.Config
}

// Units returns the spec's decomposition into memoizable units. A spec
// with no TLBs is a single policy/WSS-only unit; the WSS calculator
// rides on the first unit only (its result is independent of the TLB).
func (p PassSpec) Units() []Unit {
	if len(p.TLBs) == 0 {
		return []Unit{{Workload: p.Workload, Refs: p.Refs, Policy: p.Policy, WSS: p.WSS, Walk: p.Walk}}
	}
	units := make([]Unit, len(p.TLBs))
	for i := range p.TLBs {
		cfg := p.TLBs[i]
		units[i] = Unit{
			Workload: p.Workload,
			Refs:     p.Refs,
			Policy:   p.Policy,
			TLB:      &cfg,
			WSS:      p.WSS && i == 0,
			Walk:     p.Walk,
		}
	}
	return units
}

// Pass submits the spec's units and returns a future of the merged
// result. Units already computed (or in flight) for this Engine are
// shared, not re-simulated. The rest queue in their fuse groups, where
// a worker running one two-size or ladder unit also runs every queued
// unit of the same (workload, refs, policy) — from this spec or any
// other — in the same trace and policy pass. The merged Result must be
// treated as read-only: its TLB entries may be shared with other
// passes.
func (e *Engine) Pass(ctx context.Context, spec PassSpec) *Future[*core.Result] {
	units := spec.Units()
	futs := make([]*Future[*core.Result], len(units))
	for i, u := range units {
		u := u
		key, err := u.Key()
		if err != nil {
			futs[i] = resolved[*core.Result](nil, err)
			continue
		}
		if f, plan, ok := e.shardFor(u.Workload, u.Policy); ok {
			// Sharded results are approximations of the serial pass;
			// the plan is part of the key so they never alias serial
			// (or differently-sharded) results in the memo cache.
			key := fmt.Sprintf("%s shards=%d warm=%d", key, plan.Shards, plan.Warmup)
			futs[i] = keyedOffPool(e, ctx, key, func(ctx context.Context) (*core.Result, error) {
				res, err := u.runSharded(e, ctx, f, plan, key)
				if err == nil {
					e.Record(key, res.Counters)
				}
				return res, err
			})
			continue
		}
		futs[i] = e.submitUnit(ctx, u, key)
	}
	merged := newFuture[*core.Result]()
	go func() {
		defer close(merged.done)
		parts, err := collect(ctx, futs).Wait(ctx)
		if err != nil {
			merged.err = err
			return
		}
		merged.val = mergeParts(parts)
	}()
	return merged
}

// mergeParts reassembles single-TLB unit results into one Result in
// unit order. Policy-side fields are identical across units (same
// trace, same policy); they are taken from the first.
func mergeParts(parts []*core.Result) *core.Result {
	out := &core.Result{
		Policy: parts[0].Policy,
		Refs:   parts[0].Refs,
		Instrs: parts[0].Instrs,
		RPI:    parts[0].RPI,
	}
	for _, p := range parts {
		out.TLBs = append(out.TLBs, p.TLBs...)
		if out.WSS == nil && p.WSS != nil {
			out.WSS = p.WSS
		}
		if out.PolicyStats == nil && p.PolicyStats != nil {
			out.PolicyStats = p.PolicyStats
		}
		if out.LadderStats == nil && p.LadderStats != nil {
			out.LadderStats = p.LadderStats
		}
		// The shadow and the walker hang off each unit's own first TLB,
		// so their counters are per-unit quantities; the first unit that
		// carried them speaks for the pass, like the policy-side fields.
		if out.PageTable == nil && p.PageTable != nil {
			out.PageTable = p.PageTable
			out.PTWalkCycles = p.PTWalkCycles
		}
		if out.Walk == nil && p.Walk != nil {
			out.Walk = p.Walk
		}
		out.Counters.Add(p.Counters)
	}
	return out
}

// StaticShifts is the canonical page-shift ladder measured by StaticWSS
// units: 4KB, 8KB, 16KB, 32KB, 64KB. Measuring the whole ladder in one
// pass costs a few counters per reference and lets every working-set
// experiment share one unit per (workload, refs, T).
var StaticShifts = []uint{addr.Shift4K, addr.Shift8K, addr.Shift16K, addr.Shift32K, addr.Shift64K}

// StaticIndex returns the index of shift in StaticShifts, or -1.
func StaticIndex(shift uint) int {
	for i, s := range StaticShifts {
		if s == shift {
			return i
		}
	}
	return -1
}

// StaticWSSUnit is a memoizable static working-set pass over one
// workload trace, measuring all of StaticShifts at window T.
type StaticWSSUnit struct {
	Workload string
	Refs     uint64
	T        uint64
}

// key is the unit's memoization key. Keeping it a method (rather than
// an inline format string at the submission site) puts it under the
// keycheck analyzer: every StaticWSSUnit field must reach the key.
func (u StaticWSSUnit) key() string {
	return fmt.Sprintf("wss-static w=%s refs=%d T=%d", u.Workload, u.Refs, u.T)
}

// StaticWSS submits the unit, returning average working-set results
// indexed as StaticShifts. Results are shared; treat as read-only.
func (e *Engine) StaticWSS(ctx context.Context, u StaticWSSUnit) *Future[[]wss.Result] {
	key := u.key()
	record := func(results []wss.Result, c obs.Counters) []wss.Result {
		c.Passes = 1
		c.Refs = u.Refs
		c.WSSPages = results[0].Pages // base (4KB) scheme
		e.Record(key, c)
		return results
	}
	if f, plan, ok := e.shardFor(u.Workload, PolicySpec{}); ok {
		// The static working-set merge is exact (wss.MergeStatic), so
		// the sharded pass shares the serial unit's key: either path
		// may satisfy a memo hit for the other, bit for bit.
		return keyedOffPool(e, ctx, key, func(ctx context.Context) ([]wss.Result, error) {
			results, c, err := StaticWSSSharded(e, ctx, f, u.Refs, u.T, plan.Shards, key, StaticShifts...)
			if err != nil {
				return nil, err
			}
			return record(results, c), nil
		})
	}
	return keyed(e, ctx, key, func(ctx context.Context) ([]wss.Result, error) {
		s, err := workload.Get(u.Workload)
		if err != nil {
			return nil, err
		}
		sizes := make([]addr.PageSize, len(StaticShifts))
		for i, sh := range StaticShifts {
			sizes[i] = addr.PageSize(1) << sh
		}
		r := s.New(u.Refs)
		results, err := core.MeasureStaticWSS(ctx, r, u.T, sizes...)
		if err != nil {
			return nil, err
		}
		return record(results, core.DecodeCounters(r)), nil
	})
}

// TwoWSS couples the dynamic scheme's working-set result with the
// policy counters of the pass that produced it.
type TwoWSS struct {
	WSS   wss.Result
	Stats policy.TwoSizeStats
}

// TwoSizeWSSUnit is a memoizable working-set pass of the dynamic
// two-size policy over one workload trace (no TLBs).
type TwoSizeWSSUnit struct {
	Workload string
	Refs     uint64
	Cfg      policy.TwoSizeConfig
}

// key is the unit's memoization key; delegating the policy fragment to
// PolicySpec.key keeps every TwoSizeConfig knob accountable to the
// keycheck analyzer through one shared spelling.
func (u TwoSizeWSSUnit) key() string {
	return fmt.Sprintf("wss-two w=%s refs=%d pol=%s", u.Workload, u.Refs, TwoSizePolicy(u.Cfg).key())
}

// TwoSizeWSS submits the unit. The configuration's DenyPromotion hook
// must be nil (see PolicySpec).
func (e *Engine) TwoSizeWSS(ctx context.Context, u TwoSizeWSSUnit) *Future[TwoWSS] {
	key := u.key()
	return keyed(e, ctx, key, func(ctx context.Context) (TwoWSS, error) {
		if u.Cfg.DenyPromotion != nil {
			return TwoWSS{}, fmt.Errorf("engine: DenyPromotion hooks cannot be memoized")
		}
		s, err := workload.Get(u.Workload)
		if err != nil {
			return TwoWSS{}, err
		}
		r := s.New(u.Refs)
		res, stats, err := core.MeasureTwoSizeWSS(ctx, r, u.Cfg)
		if err != nil {
			return TwoWSS{}, err
		}
		c := core.DecodeCounters(r)
		c.Passes = 1
		c.Refs = u.Refs
		c.Promotions = stats.Promotions
		c.Demotions = stats.Demotions
		e.Record(key, c)
		return TwoWSS{WSS: res, Stats: stats}, nil
	})
}
