// Promotion: watch the Section 3.4 page-size assignment policy at work,
// end to end through the OS substrates.
//
// Part 1 drives the li workload through the dynamic policy and prints a
// timeline of promotions/demotions and the instantaneous working-set
// size of the two-page scheme.
//
// Part 2 replays the policy's decisions against the page-table and
// physical-memory substrates: each promotion allocates an aligned 32KB
// frame from the buddy allocator, copies the resident small pages, and
// frees their frames — accumulating the real costs (copy bytes, walk
// cycles, external fragmentation) that the paper folds into its 25%
// miss-penalty increase.
//
// Run with:
//
//	go run ./examples/promotion
package main

import (
	"errors"
	"fmt"
	"io"
	"log"

	"twopage/internal/addr"
	"twopage/internal/pagetable"
	"twopage/internal/physmem"
	"twopage/internal/policy"
	"twopage/internal/trace"
	"twopage/internal/workload"
	"twopage/internal/wss"
)

func main() {
	const refs = 1_000_000
	const T = refs / 8

	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(T))
	calc := wss.NewTwoSize(pol)

	// OS substrates: a 16MB physical memory and a two-size page table.
	mem := physmem.MustNew(16 << 20)
	pt := pagetable.NewNTable(pol.SizeClasses())

	src := workload.MustNew("li", refs)
	buf := make([]trace.Ref, 4096)
	var step uint64
	events := 0

	fmt.Println("== part 1+2: policy timeline against page table + buddy allocator ==")
	for {
		n, err := src.Read(buf)
		for _, ref := range buf[:n] {
			step++
			res := pol.Assign(ref.Addr)
			calc.Observe(res)
			switch res.Event {
			case policy.EventPromote:
				if events < 12 {
					fmt.Printf("  ref %8d: PROMOTE chunk %#07x (%d blocks active)  WSS=%s\n",
						step, uint64(res.Chunk), pol.Window().ChunkActive(res.Chunk),
						wss.FormatBytes(float64(calc.Current())))
				}
				events++
				promote(pt, mem, res.Chunk)
			case policy.EventDemote:
				if events < 12 {
					fmt.Printf("  ref %8d: DEMOTE  chunk %#07x  WSS=%s\n",
						step, uint64(res.Chunk), wss.FormatBytes(float64(calc.Current())))
				}
				events++
				demote(pt, mem, res.Chunk)
			default:
				ensureMapped(pt, mem, res.Page)
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			log.Fatal(err)
		}
	}

	st := pol.Stats()
	pts := pt.Stats()
	ms := mem.Stats()
	fmt.Printf("\npolicy:     %d promotions, %d demotions, %d chunks large at end\n",
		st.Promotions, st.Demotions, st.LargeChunks)
	fmt.Printf("working set: %s average under 4KB/32KB\n",
		wss.FormatBytes(calc.Result().AvgBytes))
	fmt.Printf("page table: %d lookups, %d promoted, %.1f KB copied\n",
		pts.Lookups, pts.Promotions, float64(pts.CopiedBytes)/1024)
	fmt.Printf("phys mem:   %d/%d frames free, %d large allocs (%d blocked by fragmentation)\n",
		mem.FreeFrames(), mem.TotalFrames(), ms.LargeAllocs, ms.FailedLargeFragmented)
	fmt.Printf("handlers:   single-size miss %.0f cycles, two-size %.0f cycles (the paper's 20/25 model)\n",
		pagetable.SingleSizeHandlerCycles(), pagetable.TwoSizeHandlerCycles())
}

// ensureMapped faults the page in (maps it) if the page table misses,
// like a soft page-fault handler would.
func ensureMapped(pt *pagetable.NTable, mem *physmem.Allocator, p policy.Page) {
	if _, walk := pt.Lookup(p.Base()); walk.Found {
		return
	}
	if p.Shift >= addr.ChunkShift {
		frame, err := mem.AllocLarge()
		if err != nil {
			return // leave unmapped under memory pressure
		}
		if err := pt.Map(1, p.Number, frame); err != nil {
			mem.Free(frame)
		}
		return
	}
	frame, err := mem.AllocSmall()
	if err != nil {
		return
	}
	if err := pt.Map(0, p.Number, frame); err != nil {
		mem.Free(frame)
	}
}

// promote reshapes the chunk's mappings: new 32KB frame, copy resident
// blocks, free the old small frames.
func promote(pt *pagetable.NTable, mem *physmem.Allocator, c addr.PN) {
	newFrame, err := mem.AllocLarge()
	if err != nil {
		return
	}
	freed, _, err := pt.Promote(1, c, newFrame)
	if err != nil {
		mem.Free(newFrame)
		return
	}
	for _, f := range freed {
		mem.Free(f.Frame)
	}
}

// demote splits the large mapping back into eight small frames.
func demote(pt *pagetable.NTable, mem *physmem.Allocator, c addr.PN) {
	var frames [addr.BlocksPerChunk]addr.PN
	for i := range frames {
		f, err := mem.AllocSmall()
		if err != nil {
			return
		}
		frames[i] = f
	}
	old, err := pt.Demote(1, c, frames[:])
	if err != nil {
		for _, f := range frames {
			mem.Free(f)
		}
		return
	}
	mem.Free(old)
}
