package core

import (
	"testing"

	"twopage/internal/addr"
	"twopage/internal/kernelref"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
)

// TestPTStepAllocs pins the shared per-reference step at zero
// steady-state allocations on the pipelines that use the most of it:
// two-size with the page-table shadow and the working-set calculator,
// and a three-size ladder with the shadow. TLB probes, the walk on a
// miss, the demand-map bookkeeping and the WSS update must all be
// allocation-free once the tables have grown to the footprint. The
// policies are promote-only so the steady-state stream carries no
// demotions (those go through applyEvent, which may legally allocate
// when the NTable restructures).
func TestPTStepAllocs(t *testing.T) {
	exact := func() []tlb.TLB {
		return []tlb.TLB{tlb.MustNew(tlb.Config{Entries: 32, Ways: 2, Index: tlb.IndexExact})}
	}
	ladder3 := addr.MustShiftClasses(addr.Shift4K, addr.Shift32K, addr.Shift256K)
	lcfg := policy.DefaultLadderConfig(1<<12, ladder3)
	lcfg.Demote = false
	cases := []struct {
		name string
		sim  *Simulator
	}{
		{"two-size+pt+wss", NewSimulator(policy.NewTwoSize(policy.TwoSizeConfig{
			T: 1 << 12, Threshold: 4, Demote: false, LargeShift: addr.Shift32K,
		}), exact(), WithPageTable(), WithWSS())},
		{"ladder3+pt", NewSimulator(policy.NewLadder(lcfg), []tlb.TLB{
			tlb.MustNew(tlb.Config{Entries: 64, Ways: 4, Index: tlb.IndexExact,
				Shifts: []uint{addr.Shift4K, addr.Shift32K, addr.Shift256K}}),
		}, WithPageTable())},
	}
	stream := kernelref.VAStream(1 << 15)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := tc.sim
			if sim.ladder == nil || sim.sa == nil {
				t.Fatal("the simulator did not resolve its concrete ladder and TLBs")
			}
			refs := make([]trace.Ref, len(stream))
			for i, va := range stream {
				refs[i] = trace.Ref{Addr: va}
			}
			sim.step(refs, false)
			i := 0
			avg := testing.AllocsPerRun(5000, func() {
				sim.step(refs[i&(1<<15-1):][:1], false)
				i++
			})
			if avg != 0 {
				t.Errorf("step allocates %.2f times per reference, want 0", avg)
			}
		})
	}
}

// TestMergeResultsGrouping pins the merge itself: merging merged parts
// is associative-enough for the battery — two halves merged then
// combined equal one flat merge. Guards the carry/gauge handling
// against ordering mistakes that the end-to-end tests could mask.
func TestMergeResultsGrouping(t *testing.T) {
	mk := func(refs, miss uint64) *Result {
		r := &Result{Refs: refs, Instrs: refs / 2}
		st := tlb.Stats{Accesses: refs, Classes: 2}
		st.MissesByClass[0] = miss
		st.HitsByClass[0] = refs - miss
		r.TLBs = []TLBResult{{Name: "t", Stats: st, MissPenalty: 25}}
		return r
	}
	parts := []*Result{mk(100, 10), mk(200, 30), mk(300, 60), mk(400, 100)}
	flat := MergeResults(parts)
	left := MergeResults(parts[:2])
	right := MergeResults(parts[2:])
	grouped := MergeResults([]*Result{left, right})
	if flat.TLBs[0].Stats != grouped.TLBs[0].Stats || flat.Refs != grouped.Refs ||
		flat.TLBs[0].MPI != grouped.TLBs[0].MPI {
		t.Errorf("grouped merge differs from flat merge:\n flat %+v\n grouped %+v", flat, grouped)
	}
}
