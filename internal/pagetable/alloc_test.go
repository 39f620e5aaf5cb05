package pagetable

import (
	"testing"

	"twopage/internal/addr"
	"twopage/internal/kernelref"
)

// TestLookupAllocs pins the miss-handler walk at zero allocations: one
// flat-table probe plus an arena index, hit or miss.
func TestLookupAllocs(t *testing.T) {
	tab := newTwoSize()
	for blk := addr.PN(0); blk < 1<<12; blk += 2 {
		if err := tab.Map(0, blk, blk); err != nil {
			t.Fatal(err)
		}
	}
	vas := kernelref.LookupVAs(1 << 14)
	i := 0
	avg := testing.AllocsPerRun(5000, func() {
		tab.Lookup(vas[i&(1<<14-1)])
		i++
	})
	if avg != 0 {
		t.Errorf("NTable.Lookup allocates %.2f times per call, want 0", avg)
	}
}

// TestMapUnmapAllocs pins steady-state map/unmap churn at zero
// allocations once the arena and free list are warm.
func TestMapUnmapAllocs(t *testing.T) {
	tab := newTwoSize()
	// Warm the arena and index past their growth phase.
	for c := addr.PN(0); c < 1<<10; c++ {
		if err := tab.Map(0, addr.FirstBlock(c), addr.PN(c)); err != nil {
			t.Fatal(err)
		}
	}
	for c := addr.PN(0); c < 1<<10; c++ {
		tab.Unmap(addr.VA(uint64(c) << addr.ChunkShift))
	}
	i := 0
	avg := testing.AllocsPerRun(5000, func() {
		c := addr.PN(i & (1<<10 - 1))
		if err := tab.Map(0, addr.FirstBlock(c), addr.PN(i)); err != nil {
			t.Fatal(err)
		}
		tab.Unmap(addr.VA(uint64(c) << addr.ChunkShift))
		i++
	})
	if avg != 0 {
		t.Errorf("Map+Unmap allocate %.2f times per cycle, want 0", avg)
	}
}
