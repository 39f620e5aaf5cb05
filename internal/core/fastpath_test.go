package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/walk"
	"twopage/internal/workload"
)

// opaqueTLB hides a TLB's concrete type, so NewSimulator cannot resolve
// it to a *tlb.SetAssoc and the per-reference loop calls it through the
// tlb.TLB interface.
type opaqueTLB struct{ tlb.TLB }

// opaqueLadder hides a *policy.Ladder behind a struct that still has
// every one of its methods, so the simulator assigns through the
// policy.Assigner interface but reports the same LadderStats.
type opaqueLadder struct{ *policy.Ladder }

// TestFastPathMatchesInterfacePath runs each pipeline twice over the same
// references: once as NewSimulator resolves it (concrete ladder, concrete
// SetAssoc TLBs) and once forced through the Assigner and tlb.TLB
// interfaces. The two Results must be identical, down to the WSS average
// and the walk counters.
func TestFastPathMatchesInterfacePath(t *testing.T) {
	const refs = 300_000
	ladder3 := addr.MustShiftClasses(addr.Shift4K, addr.Shift32K, addr.Shift256K)
	cases := []struct {
		name    string
		program string
		build   func(opaque bool) *Simulator
	}{
		{"two-size+walk+wss", "tomcatv", func(opaque bool) *Simulator {
			pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(20_000))
			tlbs := []tlb.TLB{
				tlb.MustNew(tlb.Config{Entries: 32, Ways: 2, Index: tlb.IndexExact}),
				tlb.NewFullyAssoc(16),
			}
			if opaque {
				tlbs = hideTLBs(tlbs)
			}
			sim := NewSimulator(pol, tlbs, WithWalkModel(walk.Default(pol.SizeClasses())), WithWSS())
			if opaque {
				// WithWSS and PolicyStats need the *policy.TwoSize itself,
				// so the policy half is forced by dropping the resolved
				// ladder instead of by a wrapper.
				sim.ladder = nil
			}
			return sim
		}},
		{"ladder3+walk", "tomcatv", func(opaque bool) *Simulator {
			var pol policy.Assigner = policy.NewLadder(policy.DefaultLadderConfig(20_000, ladder3))
			tlbs := []tlb.TLB{
				tlb.MustNew(tlb.Config{Entries: 64, Ways: 4, Index: tlb.IndexExact,
					Shifts: []uint{addr.Shift4K, addr.Shift32K, addr.Shift256K}}),
				tlb.MustNew(tlb.Config{Entries: 16, Ways: 2, Index: tlb.IndexSmall,
					Shifts: []uint{addr.Shift4K, addr.Shift32K, addr.Shift256K}}),
			}
			if opaque {
				pol, tlbs = opaqueLadder{pol.(*policy.Ladder)}, hideTLBs(tlbs)
			}
			return NewSimulator(pol, tlbs, WithWalkModel(walk.Default(ladder3)))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fast, slow := tc.build(false), tc.build(true)
			if fast.ladder == nil || fast.sa == nil {
				t.Fatal("NewSimulator did not resolve the concrete ladder and TLBs")
			}
			if slow.ladder != nil || slow.sa != nil {
				t.Fatal("the opaque pipeline still takes the concrete path")
			}
			want, err := slow.Run(context.Background(), workload.MustNew(tc.program, refs))
			if err != nil {
				t.Fatal(err)
			}
			got, err := fast.Run(context.Background(), workload.MustNew(tc.program, refs))
			if err != nil {
				t.Fatal(err)
			}
			if want.Counters.Promotions == 0 || want.Counters.Demotions == 0 || want.Walk.Walks == 0 {
				t.Fatalf("the pass exercises too little: %+v", want.Counters)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("concrete path result differs from the interface path:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

func hideTLBs(tlbs []tlb.TLB) []tlb.TLB {
	out := make([]tlb.TLB, len(tlbs))
	for i, t := range tlbs {
		out[i] = opaqueTLB{t}
	}
	return out
}

// TestRunIsSingleUse pins the Simulator's one-pass contract: a second
// Run, or a Warm after Run, is an error instead of counts piled onto the
// first pass's.
func TestRunIsSingleUse(t *testing.T) {
	sim := NewSimulator(policy.NewSingle(addr.Size4K), []tlb.TLB{tlb.NewFullyAssoc(4)})
	res, err := sim.Run(context.Background(), trace.NewSliceReader(makeTrace(100, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Refs != 200 {
		t.Fatalf("first Run saw %d refs, want 200", res.Refs)
	}
	if _, err := sim.Run(context.Background(), trace.NewSliceReader(makeTrace(100, 4))); err == nil ||
		!strings.Contains(err.Error(), "Run called twice") {
		t.Errorf("second Run: err = %v, want a Run-called-twice error", err)
	}
	if err := sim.Warm(context.Background(), trace.NewSliceReader(makeTrace(10, 4))); err == nil ||
		!strings.Contains(err.Error(), "after Run") {
		t.Errorf("Warm after Run: err = %v, want an after-Run error", err)
	}
}
