// Command vmsim runs the end-to-end virtual-memory simulator: TLB +
// two-size page table + buddy allocator + clock replacement, with full
// cycle accounting. It answers "what does the whole translation path
// cost", where tlbsim answers only the TLB question.
//
// Examples:
//
//	vmsim -workload matrix300 -mem 4M -two
//	vmsim -workload li -mem 512K -entries 32 -ways 2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"twopage/internal/addr"
	"twopage/internal/disk"
	"twopage/internal/mmu"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/workload"
)

func parseSize(s string) (addr.PageSize, error) {
	s = strings.ToUpper(strings.TrimSpace(s))
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "M"):
		mult = 1 << 20
		s = strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult = 1 << 10
		s = strings.TrimSuffix(s, "K")
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return addr.PageSize(v * mult), nil
}

func main() {
	var (
		wl      = flag.String("workload", "", "synthetic workload name")
		refs    = flag.Uint64("refs", 0, "trace length (0 = workload default)")
		mem     = flag.String("mem", "16M", "physical memory size, e.g. 512K, 4M")
		entries = flag.Int("entries", 16, "TLB entries")
		ways    = flag.Int("ways", 0, "associativity (0 = fully associative)")
		two     = flag.Bool("two", false, "dynamic 4KB/32KB policy instead of 4KB")
		window  = flag.Int("T", 0, "policy window (0 = refs/8)")
		fault   = flag.Float64("faultcycles", 0, "cycles per page fault (0 = default 500)")
		useDisk = flag.Bool("disk", false, "price faults with the 1992 positional disk model instead of -faultcycles")
	)
	flag.Parse()

	if *wl == "" {
		fatal("need -workload (one of: %v)", workload.Names())
	}
	spec, err := workload.Get(*wl)
	if err != nil {
		fatal("%v", err)
	}
	n := *refs
	if n == 0 {
		n = spec.DefaultRefs
	}
	size, err := parseSize(*mem)
	if err != nil {
		fatal("%v", err)
	}
	w := *ways
	if w == 0 {
		w = *entries
	}
	hw, err := tlb.New(tlb.Config{Entries: *entries, Ways: w, Index: tlb.IndexExact})
	if err != nil {
		fatal("%v", err)
	}
	var pol policy.Assigner
	if *two {
		T := *window
		if T == 0 {
			T = int(n / 8)
		}
		pcfg := policy.DefaultTwoSizeConfig(T)
		if err := pcfg.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "vmsim: -T (0 means refs/8): %v\n", err)
			os.Exit(2)
		}
		pol = policy.NewTwoSize(pcfg)
	} else {
		pol = policy.NewSingle(addr.Size4K)
	}
	cfg := mmu.Config{TLB: hw, Policy: pol, Memory: size, FaultCycles: *fault}
	if *useDisk {
		dm := disk.Default()
		cfg.Disk = &dm
	}
	m, err := mmu.New(cfg)
	if err != nil {
		fatal("%v", err)
	}
	st, err := m.Run(context.Background(), spec.New(n))
	if err != nil {
		fatal("%v", err)
	}

	fmt.Printf("workload:     %s (%d refs), policy %s, %s, memory %s\n",
		spec.Name, st.Accesses, pol.Name(), hw.Name(), size)
	fmt.Printf("TLB:          %d hits, %d misses (%.4f%% miss)\n",
		st.TLBHits, st.TLBMisses, 100*float64(st.TLBMisses)/float64(st.Accesses))
	fmt.Printf("walks:        %d (%d refills, %d faults)\n", st.Walks, st.WalkHits, st.Faults)
	fmt.Printf("replacement:  %d evictions (%d large)\n", st.Evictions, st.EvictionsByClass[1])
	fmt.Printf("promotion:    %d promotions, %d demotions, %.1f KB copied\n",
		st.Promotions, st.Demotions, float64(st.CopiedBytes)/1024)
	ms := m.Memory().Stats()
	fmt.Printf("memory:       %d/%d frames free, %d large allocs, %d fragmentation-blocked\n",
		m.Memory().FreeFrames(), m.Memory().TotalFrames(), ms.LargeAllocs, ms.FailedLargeFragmented)
	if st.IO.PageIns > 0 {
		fmt.Printf("disk I/O:     %d page-ins, %.2f MB, %.0f ms\n",
			st.IO.PageIns, float64(st.IO.BytesIn)/(1<<20),
			st.IO.IOCycles/(disk.Default().CPUMHz*1e3))
	}
	fmt.Printf("translation:  %.3f cycles/access (%.0f total)\n", st.CyclesPerAccess(), st.Cycles)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vmsim: "+format+"\n", args...)
	os.Exit(1)
}
