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
	"fmt"
	"io"
	"os"
	"strings"

	"twopage/internal/addr"
	"twopage/internal/cli"
	"twopage/internal/disk"
	"twopage/internal/mmu"
	"twopage/internal/obs"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cmd := cli.New("vmsim", stdout, stderr)
	fs := cmd.Flags
	source := cmd.SourceFlags(0)
	var (
		mem     = fs.String("mem", "16M", "physical memory size, e.g. 512K, 4M")
		entries = fs.Int("entries", 16, "TLB entries")
		ways    = fs.Int("ways", 0, "associativity (0 = fully associative)")
		two     = fs.Bool("two", false, "dynamic 4KB/32KB policy instead of 4KB")
		window  = fs.Int("T", 0, "policy window (0 = refs/8)")
		fault   = fs.Float64("faultcycles", 0, "cycles per page fault (0 = default 500)")
		useDisk = fs.Bool("disk", false, "price faults with the 1992 positional disk model instead of -faultcycles")
	)
	return cmd.Run(args, func(ctx context.Context) (*obs.Report, error) {
		src, err := source.Open()
		if err != nil {
			return nil, err
		}
		size, err := workload.ParseSize(strings.TrimSpace(*mem))
		if err != nil {
			return nil, cli.Usage("-mem", err)
		}
		tlbCfg, err := cli.TLB(*entries, *ways, "exact", addr.SizeClasses{})
		if err != nil {
			return nil, err
		}
		hw, err := tlb.New(tlbCfg)
		if err != nil {
			return nil, err
		}
		var pol policy.Assigner
		if *two {
			T, err := cli.Window(*window, src.Refs)
			if err != nil {
				return nil, err
			}
			pol = policy.NewTwoSize(policy.DefaultTwoSizeConfig(T))
		} else {
			pol = policy.NewSingle(addr.Size4K)
		}
		cfg := mmu.Config{TLB: hw, Policy: pol, Memory: addr.ChunkSize, FaultCycles: *fault}
		if *useDisk {
			dm := disk.Default()
			cfg.Disk = &dm
		}
		// mmu.New validates each flag's share of the configuration: the
		// fault cost over the smallest memory first, then -mem itself.
		if _, err := mmu.New(cfg); err != nil {
			return nil, cli.Usage("-faultcycles", err)
		}
		cfg.Memory = addr.PageSize(size)
		m, err := mmu.New(cfg)
		if err != nil {
			return nil, cli.Usage("-mem", err)
		}
		st, err := m.Run(ctx, src.Reader)
		if err != nil {
			return nil, err
		}

		fmt.Fprintf(stdout, "workload:     %s (%d refs), policy %s, %s, memory %s\n",
			src.Name, st.Accesses, pol.Name(), hw.Name(), cfg.Memory)
		fmt.Fprintf(stdout, "TLB:          %d hits, %d misses (%.4f%% miss)\n",
			st.TLBHits, st.TLBMisses, 100*float64(st.TLBMisses)/float64(st.Accesses))
		fmt.Fprintf(stdout, "walks:        %d (%d refills, %d faults)\n", st.Walks, st.WalkHits, st.Faults)
		fmt.Fprintf(stdout, "replacement:  %d evictions (%d large)\n", st.Evictions, st.EvictionsByClass[1])
		fmt.Fprintf(stdout, "promotion:    %d promotions, %d demotions, %.1f KB copied\n",
			st.Promotions, st.Demotions, float64(st.CopiedBytes)/1024)
		ms := m.Memory().Stats()
		fmt.Fprintf(stdout, "memory:       %d/%d frames free, %d large allocs, %d fragmentation-blocked\n",
			m.Memory().FreeFrames(), m.Memory().TotalFrames(), ms.LargeAllocs, ms.FailedLargeFragmented)
		if st.IO.PageIns > 0 {
			fmt.Fprintf(stdout, "disk I/O:     %d page-ins, %.2f MB, %.0f ms\n",
				st.IO.PageIns, float64(st.IO.BytesIn)/(1<<20),
				st.IO.IOCycles/(disk.Default().CPUMHz*1e3))
		}
		fmt.Fprintf(stdout, "translation:  %.3f cycles/access (%.0f total)\n", st.CyclesPerAccess(), st.Cycles)
		return nil, nil
	})
}
