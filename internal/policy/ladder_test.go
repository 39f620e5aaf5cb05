package policy

import (
	"math/rand"
	"testing"

	"twopage/internal/addr"
)

// twoLoopAssign is the ladder's Assign as it was before deciding and
// resolving shared one pass: a decide loop (top level first, at most one
// transition) followed by a resolve loop that probes every level again.
// It is the reference TestLadderOnePassDifferential checks the one-pass
// Assign against.
func twoLoopAssign(l *Ladder, va addr.VA) Result {
	l.stats.Refs++
	l.win.StepVA(va)
	n := l.cfg.Classes.N()
	var res Result
	for k := n - 1; k >= 1; k-- {
		r := l.cfg.Classes.Page(va, k)
		var support int
		if k == 1 {
			support = l.win.ChunkActive(r)
		} else {
			support = int(l.kids[k].Get(uint64(r)))
		}
		isMapped := l.mapped[k].Has(uint64(r))
		thr := l.cfg.Thresholds[k-1]
		switch {
		case !isMapped && support >= thr &&
			(l.cfg.Deny == nil || !l.cfg.Deny(k, r)):
			l.promote(k, r)
			res.Event, res.Chunk, res.Level = EventPromote, r, k
		case isMapped && l.cfg.Demote && support < thr:
			l.demote(k, r)
			res.Event, res.Chunk, res.Level = EventDemote, r, k
		default:
			continue
		}
		break
	}
	for k := n - 1; k >= 1; k-- {
		r := l.cfg.Classes.Page(va, k)
		if l.mapped[k].Has(uint64(r)) {
			l.stats.RefsByClass[k]++
			res.Page = Page{Number: r, Shift: l.cfg.Classes.Shift(k)}
			return res
		}
	}
	l.stats.RefsByClass[0]++
	res.Page = Page{Number: addr.Block(va), Shift: addr.BlockShift}
	return res
}

// ladderStream draws n references that exercise every ladder level: a
// few hot regions of the top class, swept densely enough to promote at
// every level, phase changes that move the hot regions and narrow or
// widen the swept span, sparse revisits of a pool of earlier regions
// (so drained mappings are seen again and demote), and scattered
// excursions that stay on base pages.
func ladderStream(rng *rand.Rand, classes addr.SizeClasses, n int) []addr.VA {
	top := classes.TopShift()
	const pool = 16
	out := make([]addr.VA, n)
	regions := make([]uint64, 4)
	for i := range regions {
		regions[i] = uint64(rng.Intn(pool)) << top
	}
	span := uint64(1) << top
	for i := range out {
		if i%1500 == 0 {
			regions[rng.Intn(len(regions))] = uint64(rng.Intn(pool)) << top
			span = uint64(1) << (addr.BlockShift + uint(rng.Intn(int(top-addr.BlockShift)+1)))
		}
		switch x := rng.Intn(16); {
		case x == 0:
			out[i] = addr.VA(rng.Uint64() % (1 << 32))
		case x <= 2:
			out[i] = addr.VA(uint64(rng.Intn(pool))<<top + rng.Uint64()%(1<<top))
		default:
			base := regions[rng.Intn(len(regions))]
			out[i] = addr.VA(base + rng.Uint64()%span)
		}
	}
	return out
}

// TestLadderOnePassDifferential drives the one-pass Assign and the
// two-loop reference over the same random streams — 2-, 3- and 4-class
// hierarchies, demotion on and off, with and without a Deny hook — and
// requires equal Results at every step, the same Deny calls, and equal
// Stats at the end. internal/tworef stays the two-class oracle against
// the pre-ladder policy; this pins the ladder's own rewrite at every
// depth.
func TestLadderOnePassDifferential(t *testing.T) {
	hierarchies := []addr.SizeClasses{
		addr.MustShiftClasses(addr.Shift4K, addr.Shift32K),
		addr.MustShiftClasses(addr.Shift4K, 14),
		addr.MustShiftClasses(addr.Shift4K, addr.Shift32K, addr.Shift256K),
		addr.MustShiftClasses(addr.Shift4K, 14, addr.Shift128K),
		addr.MustShiftClasses(addr.Shift4K, addr.Shift32K, addr.Shift256K, addr.Shift2M),
		addr.MustShiftClasses(addr.Shift4K, 13, 16, 20),
	}
	// Coverage of the paths the one-pass rewrite distinguishes:
	// promotions and demotions above class 1, and demotions with
	// nothing mapped above that resolve to a mapped class below.
	var upperPromotes, upperDemotes, demoteResolvedBelow int
	for hi, classes := range hierarchies {
		for _, demote := range []bool{true, false} {
			for _, deny := range []bool{false, true} {
				for rep := 0; rep < 3; rep++ {
					seed := int64(hi*12 + btoi(demote)*6 + btoi(deny)*3 + rep)
					rng := rand.New(rand.NewSource(seed))
					cfg := LadderConfig{T: 64 + rng.Intn(512), Classes: classes, Demote: demote}
					for k := 1; k < classes.N(); k++ {
						cfg.Thresholds = append(cfg.Thresholds, 1+rng.Intn(classes.Fanout(k)))
					}
					one, ref := cfg, cfg
					var oneDenies, refDenies []addr.PN
					if deny {
						veto := func(calls *[]addr.PN) func(int, addr.PN) bool {
							return func(level int, region addr.PN) bool {
								*calls = append(*calls, region<<2|addr.PN(level))
								return (uint64(region)*0x9E3779B97F4A7C15>>61)+uint64(level) < 3
							}
						}
						one.Deny, ref.Deny = veto(&oneDenies), veto(&refDenies)
					}
					lo, lr := NewLadder(one), NewLadder(ref)
					for i, va := range ladderStream(rng, classes, 20000) {
						got, want := lo.Assign(va), twoLoopAssign(lr, va)
						if got != want {
							t.Fatalf("%v %+v seed %d ref %d (va %#x): one-pass %+v, two-loop %+v",
								classes, cfg, seed, i, uint64(va), got, want)
						}
						switch {
						case got.Event == EventPromote && got.Level >= 2:
							upperPromotes++
						case got.Event == EventDemote:
							if got.Level >= 2 {
								upperDemotes++
							}
							if got.Page.Shift > addr.BlockShift && got.Page.Shift < classes.Shift(got.Level) {
								demoteResolvedBelow++
							}
						}
					}
					if len(oneDenies) != len(refDenies) {
						t.Fatalf("%v seed %d: one-pass consulted Deny %d times, two-loop %d",
							classes, seed, len(oneDenies), len(refDenies))
					}
					for i := range oneDenies {
						if oneDenies[i] != refDenies[i] {
							t.Fatalf("%v seed %d: Deny call %d differs", classes, seed, i)
						}
					}
					if got, want := lo.Stats(), lr.Stats(); got != want {
						t.Fatalf("%v seed %d: stats %+v, want %+v", classes, seed, got, want)
					}
				}
			}
		}
	}
	t.Logf("upper-level promotions %d, upper-level demotions %d, demotions resolved below %d",
		upperPromotes, upperDemotes, demoteResolvedBelow)
	if upperPromotes == 0 || upperDemotes == 0 || demoteResolvedBelow == 0 {
		t.Fatal("the streams miss a path the one-pass Assign distinguishes; the equality above proves little")
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
