package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/workload"
)

// holdSlot occupies a parallelism-1 engine's only slot until the
// returned release is called, so units submitted meanwhile all queue
// before any of them can start.
func holdSlot(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	started, block := make(chan struct{}), make(chan struct{})
	f := Go(e, context.Background(), "hold", func(ctx context.Context) (int, error) {
		close(started)
		<-block
		return 0, nil
	})
	<-started
	return func() {
		close(block)
		if _, err := f.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func threeClasses() addr.SizeClasses {
	return addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift, addr.Shift256K)
}

// fuseSpecs are passes over one workload covering every group shape:
// two two-size groups (one with the WSS calculator on a TLB unit, one
// with it on a TLB-less unit), a three-size ladder group, and a
// single-size group, which stays solo.
func fuseSpecs(wl string, refs uint64) []PassSpec {
	three := threeClasses()
	twoA := TwoSizePolicy(policy.DefaultTwoSizeConfig(2000))
	twoB := TwoSizePolicy(policy.DefaultTwoSizeConfig(5000))
	ladder := LadderPolicy(policy.DefaultLadderConfig(3000, three))
	return []PassSpec{
		{Workload: wl, Refs: refs, Policy: twoA, WSS: true,
			TLBs: []tlb.Config{{Entries: 16}, {Entries: 32, Ways: 2}, {Entries: 64, Ways: 4, Index: tlb.IndexLarge}}},
		{Workload: wl, Refs: refs, Policy: twoB,
			TLBs: []tlb.Config{{Entries: 8}, {Entries: 32, Ways: 4}}},
		{Workload: wl, Refs: refs, Policy: twoB, WSS: true},
		{Workload: wl, Refs: refs, Policy: ladder,
			TLBs: []tlb.Config{
				{Entries: 16, Ways: 16, Shifts: three.Shifts()},
				{Entries: 64, Ways: 4, Shifts: three.Shifts()},
			}},
		{Workload: wl, Refs: refs, Policy: SinglePolicy(addr.Size4K),
			TLBs: []tlb.Config{{Entries: 16}, {Entries: 64, Ways: 4}}},
	}
}

// Every unit of a fused pass returns exactly the Result and Counters of
// a pass of that unit alone. The trace-file workload checks that each unit gets the
// pass's decode counters.
func TestFusedUnitsMatchSolo(t *testing.T) {
	f, _ := sectionFile(t, 30_000, 4096)
	const file = "fusetest-file"
	if err := workload.RegisterFile(file, f); err != nil {
		t.Fatal(err)
	}
	defer workload.Unregister(file)
	workloads := []string{"worm", "tomcatv", "li", file}
	ctx := context.Background()
	e := New(1)
	release := holdSlot(t, e)
	var units []Unit
	var futs []*Future[*core.Result]
	for _, wl := range workloads {
		for _, spec := range fuseSpecs(wl, 20_000) {
			for _, u := range spec.Units() {
				key, err := u.Key()
				if err != nil {
					t.Fatal(err)
				}
				units = append(units, u)
				futs = append(futs, e.submitUnit(ctx, u, key))
			}
		}
	}
	release()
	for i, f := range futs {
		got, err := f.Wait(ctx)
		if err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
		solo, err := runFused(ctx, units[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		want := solo[0]
		key, _ := units[i].Key()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fused result differs from solo\nfused: %+v\nsolo:  %+v", key, got, want)
		}
		if units[i].Workload == file && got.Counters.DecodedRefs == 0 {
			t.Errorf("%s: no decode counters", key)
		}
	}
	// Per workload: two-size A fuses 3 units, two-size B 3, the ladder
	// 2; the two single-size units run alone.
	if got, want := e.Stats().Fused, int64(len(workloads)*(2+2+1)); got != want {
		t.Errorf("Fused = %d, want %d", got, want)
	}
}

// Three queued units of one two-size group run as one core pass once
// the slot frees; three single-size units each run their own.
func TestFusedPassRunsOnce(t *testing.T) {
	ctx := context.Background()
	cfgs := []tlb.Config{{Entries: 8}, {Entries: 16}, {Entries: 32, Ways: 2}}
	for _, tc := range []struct {
		name  string
		pol   PolicySpec
		fused int64
	}{
		{"two-size", TwoSizePolicy(policy.DefaultTwoSizeConfig(2000)), 2},
		{"single", SinglePolicy(addr.Size4K), 0},
	} {
		e := New(1)
		release := holdSlot(t, e)
		f := e.Pass(ctx, PassSpec{Workload: "li", Refs: 20_000, Policy: tc.pol, TLBs: cfgs})
		release()
		res, err := f.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.TLBs) != len(cfgs) {
			t.Fatalf("%s: %d TLBs, want %d", tc.name, len(res.TLBs), len(cfgs))
		}
		st := e.Stats()
		if st.Fused != tc.fused || st.Submitted != 4 || st.Done != 4 || st.CacheHits != 0 {
			t.Errorf("%s: stats = %+v, want Fused %d and 4 submitted, 4 done", tc.name, st, tc.fused)
		}
	}
}

// tripCtx is a submitter context that a tripwire may cancel from inside
// a pass: trace.DrainContext polls Err once per batch.
type tripCtx struct {
	context.Context
	cancel context.CancelFunc
	wire   *tripwire
}

func (c *tripCtx) Err() error {
	c.wire.poll(c)
	return c.Context.Err()
}

// tripwire cancels the first of its contexts to be polled, on that
// context's n-th poll: whichever submitter's unit claimed the fused
// pass is canceled mid-pass.
type tripwire struct {
	mu    sync.Mutex
	n     int
	first *tripCtx
	polls int
}

func (w *tripwire) poll(c *tripCtx) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.first == nil {
		w.first = c
	}
	if w.first == c {
		if w.polls++; w.polls == w.n {
			c.cancel()
		}
	}
}

func (w *tripwire) context() *tripCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &tripCtx{Context: ctx, cancel: cancel, wire: w}
}

// Two submitters share a fused pass on a parallelism-1 engine and the
// claiming one is canceled mid-pass: its units fail, the other
// submitter's units run again on their own and match a solo run.
func TestFusedCancelFailsOnlyOwnUnits(t *testing.T) {
	bg := context.Background()
	pol := TwoSizePolicy(policy.DefaultTwoSizeConfig(2000))
	specs := []PassSpec{
		{Workload: "worm", Refs: 40_000, Policy: pol, WSS: true,
			TLBs: []tlb.Config{{Entries: 8}, {Entries: 16}}},
		{Workload: "worm", Refs: 40_000, Policy: pol,
			TLBs: []tlb.Config{{Entries: 32, Ways: 2}, {Entries: 64, Ways: 4}}},
	}
	wire := &tripwire{n: 3}
	ctxs := []*tripCtx{wire.context(), wire.context()}
	e := New(1)
	release := holdSlot(t, e)
	futs := make([]*Future[*core.Result], len(specs))
	for i, spec := range specs {
		futs[i] = e.Pass(ctxs[i], spec)
	}
	release()
	// A unit nobody settles would hang the wait; fail it instead.
	wait, cancel := context.WithTimeout(bg, time.Minute)
	defer cancel()
	results := make([]*core.Result, len(specs))
	errs := make([]error, len(specs))
	for i, f := range futs {
		results[i], errs[i] = f.Wait(wait)
	}
	if wait.Err() != nil {
		t.Fatal("a fused unit was never settled")
	}
	canceled := -1
	for i, c := range ctxs {
		if c == wire.first {
			canceled = i
		}
	}
	if canceled < 0 {
		t.Fatal("no pass polled a submitter context")
	}
	live := 1 - canceled
	if !errors.Is(errs[canceled], context.Canceled) {
		t.Errorf("canceled submitter: err = %v, want context.Canceled", errs[canceled])
	}
	if errs[live] != nil {
		t.Fatalf("live submitter failed: %v", errs[live])
	}
	want, err := New(1).Pass(bg, specs[live]).Wait(bg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results[live], want) {
		t.Errorf("live submitter's result differs from a solo run\ngot:  %+v\nwant: %+v", results[live], want)
	}
	// The canceled units were evicted: a live resubmission simulates
	// them afresh.
	again, err := e.Pass(bg, specs[canceled]).Wait(bg)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := New(1).Pass(bg, specs[canceled]).Wait(bg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, solo) {
		t.Errorf("resubmitted units differ from a solo run")
	}
	if st := e.Stats(); st.Done != st.Submitted {
		t.Errorf("stats = %+v: every unit must settle exactly once", st)
	}
}
