package main

// Fingerprints (see fingerprint) of each file-backed workload's fused
// result at seed 0, the built-in programs' fixed streams.
const (
	wormPin = `refs=10000000 instrs=7407408
tlb0 accesses=10000000 inval=1 hits=[2303621 7395119] misses=[301259 1]
tlb1 accesses=10000000 inval=1 hits=[2289899 7395119] misses=[314981 1]
policy {Refs:10000000 LargeRefs:7395120 SmallRefs:2604880 Promotions:1 Demotions:0 LargeChunks:1}
pagetable {Lookups:301260 Misses:293 Promotions:1 Demotions:0 CopiedBytes:12288}
walk {Walks:301260 LoadsByClass:[301161 98464 0 0] PWCHitsByClass:[0 202796 0 0] PWCMissesByClass:[0 98365 0 0] PWCFlushes:1 MemHits:264468 MemMisses:135157 Cycles:9423060}
wss avg_bytes=1.2185698516992e+06 samples=10000000
`

	matrixPin = `refs=10000000 instrs=7142858
tlb0 accesses=10000000 inval=0 hits=[9222424 0] misses=[777576 0]
tlb1 accesses=10000000 inval=0 hits=[9239475 0] misses=[760525 0]
`

	tomcatvPin = `refs=10000000 instrs=7352942
tlb0 accesses=10000000 inval=2397 hits=[2286124 5484483 2225966] misses=[1475 1930 22]
ladder {Refs:10000000 RefsByClass:[2287599 5486413 2225988 0] Promotions:[0 12898 18 0] Demotions:[0 12756 0 0] Mapped:[0 113 14 0]}
pagetable {Lookups:3427 Misses:188 Promotions:1080 Demotions:999 CopiedBytes:68648960}
walk {Walks:3427 LoadsByClass:[1413 3293 2517 0] PWCHitsByClass:[0 95 815 0] PWCMissesByClass:[0 1318 2478 0] PWCFlushes:25672 MemHits:7076 MemMisses:147 Cycles:90091}
`
)
