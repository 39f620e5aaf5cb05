// Command tlbsim runs a single TLB simulation over a synthetic workload
// or a trace file and prints the paper's metrics.
//
// Examples:
//
//	tlbsim -workload matrix300 -entries 16                 # fully associative
//	tlbsim -workload tomcatv -entries 32 -ways 2 -index large
//	tlbsim -workload li -two -T 500000 -entries 16 -ways 2 -index exact
//	tlbsim -workload li -two -walk                         # modeled page walks
//	tlbsim -workload li -two -walk -walkpwc -1 -walkmem -1 # walk, caches off
//	tlbsim -workload li -sizes 4096,32768,262144 -ladder   # three-size ladder
//	tlbsim -workload li -sizes 4096,32768,262144 -ladder -index class1
//	tlbsim -trace foo.trc -pagesize 8192        # format sniffed (v2/binary/text)
//	tlbsim -workload li -stats -                # JSON run report on stderr
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"twopage/internal/addr"
	"twopage/internal/cli"
	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/obs"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cmd := cli.New("tlbsim", stdout, stderr)
	fs := cmd.Flags
	source := cmd.SourceFlags(cli.SpecInput | cli.TraceInput)
	fs.Lookup("workload").Usage = "synthetic workload name (see -listworkloads)"
	fs.Lookup("trace").Usage = "trace file to simulate instead of a workload"
	cmd.ObserveFlags()
	var (
		entries  = fs.Int("entries", 16, "TLB entries")
		ways     = fs.Int("ways", 0, "associativity (0 = fully associative)")
		index    = fs.String("index", "exact", "set index scheme: small, large, exact, or classK (K = size class)")
		pageSize = fs.Uint64("pagesize", 4096, "single page size in bytes")
		two      = fs.Bool("two", false, "use the dynamic 4KB/32KB policy instead of a single size")
		sizes    = fs.String("sizes", "", "comma-separated page-size hierarchy in bytes, e.g. 4096,32768,262144")
		ladder   = fs.Bool("ladder", false, "use the N-level promotion ladder over the -sizes hierarchy")
		window   = fs.Int("T", 0, "two-page policy window in refs (0 = refs/8)")
		thresh   = fs.Int("threshold", 4, "two-page promotion threshold (blocks of 8)")
		wss      = fs.Bool("wss", false, "also report the two-page working-set size")
		pt       = fs.Bool("pt", false, "model a software page table: charge modelled walk cycles on first-TLB misses (needs -two or -ladder)")
		walkF    = fs.Bool("walk", false, "model multi-level page walks with MMU walk caches: CPI_TLB becomes emergent instead of MPI x penalty (needs -two or -ladder; implies -pt)")
		walkPWC  = fs.Int("walkpwc", 0, "page-walk-cache entries per level (0 = default, negative = disable; needs -walk)")
		walkMem  = fs.Int("walkmem", 0, "memory-side cache bytes for walk loads (0 = default, negative = disable; needs -walk)")
		shards   = fs.Int("shards", 1, "split a v2 trace into this many sections simulated in parallel and merged (1 = exact serial pass; needs -trace)")
		warmup   = fs.Uint64("warmup", 0, "per-shard warm-up references replayed before measuring (0 = auto from the policy window; needs -shards > 1)")
		list     = fs.Bool("listworkloads", false, "list synthetic workloads and exit")
	)
	return cmd.Run(args, func(ctx context.Context) (*obs.Report, error) {
		if err := cli.Warmup(*warmup, *shards); err != nil {
			return nil, err
		}
		if !addr.PageSize(*pageSize).Valid() {
			return nil, cli.Usagef("-pagesize", "must be a power of two, got %d", *pageSize)
		}
		if *list {
			for _, s := range workload.All() {
				fmt.Fprintf(stdout, "%-10s %s\n", s.Name, s.Description)
			}
			return nil, nil
		}

		var classes addr.SizeClasses
		if *sizes != "" {
			ps, err := cli.Sizes(*sizes)
			if err != nil {
				return nil, err
			}
			if classes, err = addr.NewSizeClasses(ps...); err != nil {
				return nil, cli.Usage("-sizes", err)
			}
		}
		tlbCfg, err := cli.TLB(*entries, *ways, *index, classes)
		if err != nil {
			return nil, err
		}

		src, err := source.Open()
		if err != nil {
			return nil, err
		}
		defer src.Close()
		nRefs := src.Refs
		if nRefs == 0 {
			nRefs = 1 << 22 // a streamed trace's length is unknown; only the default window uses it
		}

		if *wss && (*ladder || !*two) {
			return nil, cli.Usagef("-wss", "supports only -two (use wsssim for single sizes)")
		}
		// newPolicy builds a fresh policy per simulator: sharded runs give
		// every section its own instance, so construction must be repeatable.
		var newPolicy func() policy.Assigner
		polT := 0 // policy window, for the auto warm-up length
		switch {
		case *ladder:
			if classes.N() < 2 {
				return nil, cli.Usagef("-ladder", "needs -sizes with at least two page sizes")
			}
			if polT, err = cli.Window(*window, nRefs); err != nil {
				return nil, err
			}
			cfg := policy.DefaultLadderConfig(polT, classes)
			if err := cfg.Validate(); err != nil {
				return nil, cli.Usage("-sizes", err)
			}
			newPolicy = func() policy.Assigner { return policy.NewLadder(cfg) }
		case *two:
			if polT, err = cli.Window(*window, nRefs); err != nil {
				return nil, err
			}
			cfg := policy.TwoSizeConfig{T: polT, Threshold: *thresh, Demote: true, LargeShift: addr.Shift32K}
			if err := cfg.Validate(); err != nil {
				return nil, cli.Usage("-threshold", err)
			}
			newPolicy = func() policy.Assigner { return policy.NewTwoSize(cfg) }
		default:
			if *pt {
				return nil, cli.Usagef("-pt", "needs a multi-size policy (-two or -ladder)")
			}
			if *walkF {
				return nil, cli.Usagef("-walk", "needs a multi-size policy (-two or -ladder)")
			}
			newPolicy = func() policy.Assigner { return policy.NewSingle(addr.MustPow2(addr.PageSize(*pageSize))) }
		}
		wcfg, err := cli.Walk(*walkPWC, *walkMem)
		if err != nil {
			return nil, err
		}

		build := func() (*core.Simulator, error) {
			t, err := tlb.New(tlbCfg)
			if err != nil {
				return nil, err
			}
			pol := newPolicy()
			var opts []core.Option
			if *wss {
				opts = append(opts, core.WithWSS())
			}
			if *pt {
				opts = append(opts, core.WithPageTable())
			}
			if *walkF {
				if err := core.CheckWalkModel(pol, wcfg); err != nil {
					return nil, err
				}
				opts = append(opts, core.WithWalkModel(wcfg))
			}
			return core.NewSimulator(pol, []tlb.TLB{t}, opts...), nil
		}

		var res *core.Result
		if *shards > 1 {
			if src.File == nil {
				return nil, cli.Usagef("-shards", "needs a v2 -trace file (sections require random access)")
			}
			plan := engine.ShardPlan{Shards: *shards, Warmup: *warmup}
			if plan.Warmup == 0 {
				plan.Warmup = engine.AutoWarmup(polT)
			}
			eng := engine.New(*shards)
			res, err = engine.RunSharded(eng, ctx, src.File, *source.Refs, plan, "tlbsim", build)
		} else {
			var sim *core.Simulator
			if sim, err = build(); err == nil {
				res, err = sim.Run(ctx, src.Reader)
			}
		}
		if err != nil {
			return nil, err
		}

		tr := res.TLBs[0]
		fmt.Fprintf(stdout, "policy:      %s\n", res.Policy)
		fmt.Fprintf(stdout, "tlb:         %s\n", tr.Name)
		fmt.Fprintf(stdout, "refs:        %d (instrs %d, RPI %.3f)\n", res.Refs, res.Instrs, res.RPI)
		fmt.Fprintf(stdout, "misses:      %d (small %d, large %d)\n",
			tr.Stats.Misses(), tr.Stats.MissesByClass[0], tr.Stats.Misses()-tr.Stats.MissesByClass[0])
		if tr.Stats.Classes > 2 {
			for k := 0; k < tr.Stats.Classes; k++ {
				fmt.Fprintf(stdout, "  class %d (%s): hits %d, misses %d\n",
					k, classes.Size(k), tr.Stats.HitsByClass[k], tr.Stats.MissesByClass[k])
			}
		}
		fmt.Fprintf(stdout, "miss ratio:  %.6f\n", tr.MissRatio)
		fmt.Fprintf(stdout, "MPI:         %.6f\n", tr.MPI)
		if res.Walk != nil {
			fmt.Fprintf(stdout, "CPI_TLB:     %.4f  (emergent penalty %.1f cycles/walk)\n", tr.CPITLB, tr.MissPenalty)
		} else {
			fmt.Fprintf(stdout, "CPI_TLB:     %.4f  (penalty %.0f cycles)\n", tr.CPITLB, tr.MissPenalty)
		}
		fmt.Fprintf(stdout, "reprobes:    %d (sequential exact-index cost model)\n", tr.Stats.Reprobes())
		if res.PageTable != nil {
			fmt.Fprintf(stdout, "pt walks:    %d (faults %d, %.0f walk cycles)\n",
				res.PageTable.Lookups, res.PageTable.Misses, res.PTWalkCycles)
		}
		if ws := res.Walk; ws != nil {
			fmt.Fprintf(stdout, "walk model:  %d walks, %d loads, %.1f cycles/walk\n",
				ws.Walks, ws.Loads(), ws.CyclesPerWalk())
			fmt.Fprintf(stdout, "  PWC:       %d hits / %d misses (%.0f%% hit), %d flushes\n",
				ws.PWCHits(), ws.PWCMisses(), 100*ws.PWCHitRatio(), ws.PWCFlushes)
			fmt.Fprintf(stdout, "  mem cache: %d hits / %d misses (%.0f%% hit)\n",
				ws.MemHits, ws.MemMisses, 100*ws.MemHitRatio())
		}
		if res.PolicyStats != nil {
			ps := res.PolicyStats
			fmt.Fprintf(stdout, "promotions:  %d (demotions %d, large chunks now %d)\n",
				ps.Promotions, ps.Demotions, ps.LargeChunks)
			fmt.Fprintf(stdout, "large refs:  %.1f%%\n", 100*float64(ps.LargeRefs)/float64(ps.Refs))
		}
		if ls := res.LadderStats; ls != nil {
			for k := 1; k < classes.N(); k++ {
				fmt.Fprintf(stdout, "class %d (%s): refs %.1f%%, promotions %d, demotions %d, mapped now %d\n",
					k, classes.Size(k),
					100*float64(ls.RefsByClass[k])/float64(ls.Refs),
					ls.Promotions[k], ls.Demotions[k], ls.Mapped[k])
			}
		}
		if res.WSS != nil {
			fmt.Fprintf(stdout, "avg WSS:     %.0f bytes (%s scheme)\n", res.WSS.AvgBytes, res.WSS.Scheme)
		}

		rep := obs.New("tlbsim")
		rep.Workloads = []string{src.Name}
		rep.Totals = res.Counters
		rep.Passes = []obs.Pass{{Key: fmt.Sprintf("w=%s refs=%d", src.Name, res.Refs), Counters: res.Counters}}
		return rep, nil
	})
}
