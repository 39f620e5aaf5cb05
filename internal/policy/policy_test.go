package policy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"twopage/internal/addr"
)

func TestPageHelpers(t *testing.T) {
	p := Page{Number: 3, Shift: addr.Shift32K}
	if p.Size() != addr.Size32K {
		t.Fatalf("Size = %v", p.Size())
	}
	if p.Base() != addr.VA(3<<addr.Shift32K) {
		t.Fatalf("Base = %#x", uint64(p.Base()))
	}
	if p.String() != "32KB@0x18000" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestSingleAssign(t *testing.T) {
	for _, size := range []addr.PageSize{addr.Size4K, addr.Size8K, addr.Size32K} {
		s := NewSingle(size)
		if s.Name() != size.String() {
			t.Fatalf("Name = %q", s.Name())
		}
		res := s.Assign(addr.VA(0x12345))
		if res.Event != EventNone {
			t.Fatal("single policy must not emit events")
		}
		if res.Page.Shift != size.Shift() {
			t.Fatalf("shift = %d", res.Page.Shift)
		}
		if res.Page.Number != addr.Page(0x12345, size.Shift()) {
			t.Fatalf("page = %#x", uint64(res.Page.Number))
		}
	}
}

func TestSinglePanicsOnInvalidSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSingle(addr.PageSize(3000))
}

func TestTwoSizeConfigValidation(t *testing.T) {
	if err := DefaultTwoSizeConfig(10).Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	for _, cfg := range []TwoSizeConfig{
		{T: 0, Threshold: 4},
		{T: -5, Threshold: 4},
		{T: 10, Threshold: 0},
		{T: 10, Threshold: 9},
	} {
		if cfg.Validate() == nil {
			t.Errorf("config %+v should not validate", cfg)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			NewTwoSize(cfg)
		}()
	}
}

// Touch the first n distinct blocks of chunk c once each.
func touchBlocks(p *TwoSize, c addr.PN, n int) []Result {
	var out []Result
	base := addr.VA(uint64(c) << addr.ChunkShift)
	for i := 0; i < n; i++ {
		out = append(out, p.Assign(base+addr.VA(i*addr.BlockSize)))
	}
	return out
}

func TestPromotionAtThreshold(t *testing.T) {
	p := NewTwoSize(DefaultTwoSizeConfig(1000))
	res := touchBlocks(p, 5, 4)
	// First three assignments: small pages, no events.
	for i := 0; i < 3; i++ {
		if res[i].Event != EventNone || res[i].Page.Shift != addr.BlockShift {
			t.Fatalf("ref %d: %+v", i, res[i])
		}
	}
	// Fourth distinct block reaches the threshold: promotion, and the
	// reference itself lands on the large page.
	if res[3].Event != EventPromote || res[3].Chunk != 5 {
		t.Fatalf("ref 3: %+v", res[3])
	}
	if res[3].Page.Shift != addr.ChunkShift || res[3].Page.Number != 5 {
		t.Fatalf("ref 3 page: %+v", res[3].Page)
	}
	if !p.IsLarge(5) {
		t.Fatal("chunk 5 should be large")
	}
	st := p.Stats()
	if st.Promotions != 1 || st.Demotions != 0 || st.LargeChunks != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.LargeRefs != 1 || st.SmallRefs != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDemotionWhenActivityExpires(t *testing.T) {
	cfg := DefaultTwoSizeConfig(8)
	p := NewTwoSize(cfg)
	touchBlocks(p, 0, 4) // promote chunk 0
	if !p.IsLarge(0) {
		t.Fatal("chunk 0 should be large")
	}
	// Flood the window with refs to a distant chunk so chunk 0's blocks
	// expire, then touch chunk 0 once: demotion happens on that access.
	for i := 0; i < 8; i++ {
		p.Assign(addr.VA(100<<addr.ChunkShift) + addr.VA(i*addr.BlockSize))
	}
	res := p.Assign(addr.VA(0))
	if res.Event != EventDemote || res.Chunk != 0 {
		t.Fatalf("expected demotion, got %+v", res)
	}
	if res.Page.Shift != addr.BlockShift {
		t.Fatalf("post-demotion page: %+v", res.Page)
	}
	if p.IsLarge(0) {
		t.Fatal("chunk 0 should be small again")
	}
	if st := p.Stats(); st.Demotions != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestNoDemotionWhenDisabled(t *testing.T) {
	cfg := DefaultTwoSizeConfig(8)
	cfg.Demote = false
	p := NewTwoSize(cfg)
	touchBlocks(p, 0, 4)
	for i := 0; i < 8; i++ {
		p.Assign(addr.VA(100<<addr.ChunkShift) + addr.VA(i*addr.BlockSize))
	}
	res := p.Assign(addr.VA(0))
	if res.Event != EventNone || res.Page.Shift != addr.ChunkShift {
		t.Fatalf("promote-only policy demoted: %+v", res)
	}
}

func TestThresholdOne(t *testing.T) {
	cfg := TwoSizeConfig{T: 100, Threshold: 1, Demote: true}
	p := NewTwoSize(cfg)
	res := p.Assign(addr.VA(0x12345))
	if res.Event != EventPromote {
		t.Fatalf("threshold-1 policy should promote on first touch: %+v", res)
	}
	if res.Page.Shift != addr.ChunkShift {
		t.Fatalf("page: %+v", res.Page)
	}
}

func TestName(t *testing.T) {
	if NewTwoSize(DefaultTwoSizeConfig(10)).Name() != "4KB/32KB" {
		t.Fatal("bad name")
	}
}

// Property (paper Section 3.4): with the half-or-more threshold, the
// mapped size of the working set under the two-page policy never exceeds
// 2x the 4KB mapped size. We check the per-chunk invariant: a chunk is
// large only if >= 4 of its blocks are active at the moment of the check.
func TestWorstCaseDoubling(t *testing.T) {
	f := func(seed int64, nRefs uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewTwoSize(DefaultTwoSizeConfig(64))
		for i := 0; i < int(nRefs%2000)+100; i++ {
			// Skewed traffic over 4 chunks.
			c := addr.PN(rng.Intn(4))
			b := rng.Intn(addr.BlocksPerChunk)
			va := addr.VA(uint64(c)<<addr.ChunkShift + uint64(b)<<addr.BlockShift)
			res := p.Assign(va)
			// Invariant: a reference lands on a large page only when the
			// chunk has >= threshold active blocks right now.
			if res.Page.Shift == addr.ChunkShift {
				if p.Window().ChunkActive(addr.Chunk(va)) < p.Config().Threshold {
					return false
				}
			}
			// Invariant: events only ever concern the referenced chunk.
			if res.Event != EventNone && res.Chunk != addr.Chunk(va) {
				return false
			}
		}
		// Mapped size <= 2x active size, chunk by chunk. The policy can
		// only demote on a reference to the chunk, so give each chunk one
		// demotion opportunity first: without it a large chunk whose
		// blocks aged out of the window after its last reference would
		// (correctly, per the mechanism) still be mapped large.
		for c := addr.PN(0); c < 4; c++ {
			p.Assign(addr.VA(uint64(c) << addr.ChunkShift))
			if p.IsLarge(c) {
				active := p.Window().ChunkActive(c)
				if uint64(addr.ChunkSize) > 2*uint64(active)*addr.BlockSize {
					return false
				}
			}
		}
		return true
	}
	// Fixed seed: quick's default source is time-seeded, which makes the
	// test draw different inputs every run.
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: stats are consistent — LargeRefs+SmallRefs == Refs, and
// promotions >= demotions always (can't demote what was never promoted).
func TestStatsConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewTwoSize(DefaultTwoSizeConfig(32))
		for i := 0; i < 3000; i++ {
			va := addr.VA(rng.Intn(1 << 18))
			p.Assign(va)
			st := p.Stats()
			if st.LargeRefs+st.SmallRefs != st.Refs {
				return false
			}
			if st.Demotions > st.Promotions {
				return false
			}
			if st.LargeChunks < 0 || uint64(st.LargeChunks) > st.Promotions {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTwoSizeAssign(b *testing.B) {
	p := NewTwoSize(DefaultTwoSizeConfig(1 << 16))
	rng := rand.New(rand.NewSource(1))
	vas := make([]addr.VA, 1<<14)
	for i := range vas {
		vas[i] = addr.VA(rng.Intn(1 << 24))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Assign(vas[i&(len(vas)-1)])
	}
}

func TestGeneralizedLargeShift(t *testing.T) {
	// 4KB/16KB: chunks are 4 blocks, threshold 2 (half).
	cfg := TwoSizeConfig{T: 100, Threshold: 2, Demote: true, LargeShift: addr.Shift16K}
	if cfg.BlocksPerChunk() != 4 {
		t.Fatalf("blocks per 16KB chunk = %d", cfg.BlocksPerChunk())
	}
	p := NewTwoSize(cfg)
	if p.Name() != "4KB/16KB" {
		t.Fatalf("name = %q", p.Name())
	}
	// Two blocks of a 16KB chunk trigger promotion.
	p.Assign(addr.VA(0))
	res := p.Assign(addr.VA(addr.BlockSize))
	if res.Event != EventPromote {
		t.Fatalf("expected promotion, got %+v", res)
	}
	if res.Page.Shift != addr.Shift16K || res.Page.Number != 0 {
		t.Fatalf("page = %+v", res.Page)
	}

	// 4KB/64KB: 16 blocks per chunk.
	cfg64 := TwoSizeConfig{T: 1000, Threshold: 8, Demote: true, LargeShift: addr.Shift64K}
	p64 := NewTwoSize(cfg64)
	if p64.Name() != "4KB/64KB" {
		t.Fatalf("name = %q", p64.Name())
	}
	var got Result
	for i := 0; i < 8; i++ {
		got = p64.Assign(addr.VA(i * addr.BlockSize))
	}
	if got.Event != EventPromote || got.Page.Shift != addr.Shift64K {
		t.Fatalf("64KB promotion: %+v", got)
	}
}

func TestLadderConfigValidation(t *testing.T) {
	three := addr.MustShiftClasses(addr.Shift4K, addr.Shift32K, addr.Shift256K)
	if err := DefaultLadderConfig(10, three).Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	bad := map[string]LadderConfig{
		"zero T":          DefaultLadderConfig(0, three),
		"negative T":      DefaultLadderConfig(-3, three),
		"one class":       {T: 10, Classes: addr.MustShiftClasses(addr.Shift4K)},
		"8KB base":        DefaultLadderConfig(10, addr.MustShiftClasses(addr.Shift8K, addr.Shift64K)),
		"top above 16MB":  DefaultLadderConfig(10, addr.MustShiftClasses(addr.Shift4K, 25)),
		"threshold count": {T: 10, Classes: three, Thresholds: []int{4}},
		"threshold zero":  {T: 10, Classes: three, Thresholds: []int{4, 0}},
		"threshold above": {T: 10, Classes: three, Thresholds: []int{9, 4}},
	}
	for name, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("%s: config %+v should not validate", name, cfg)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewLadder should panic", name)
				}
			}()
			NewLadder(cfg)
		}()
	}
}

func TestLargeShiftValidation(t *testing.T) {
	for _, cfg := range []TwoSizeConfig{
		{T: 10, Threshold: 1, LargeShift: addr.BlockShift}, // not larger than small
		{T: 10, Threshold: 1, LargeShift: 30},              // absurdly large
		{T: 10, Threshold: 5, LargeShift: addr.Shift16K},   // threshold > 4 blocks
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			NewTwoSize(cfg)
		}()
	}
}

func TestDefaultConfigIsPaper(t *testing.T) {
	cfg := DefaultTwoSizeConfig(10)
	if cfg.LargeShift != addr.ChunkShift || cfg.Threshold != 4 || !cfg.Demote {
		t.Fatalf("default config: %+v", cfg)
	}
}

func TestDenyPromotion(t *testing.T) {
	cfg := DefaultTwoSizeConfig(1000)
	cfg.DenyPromotion = func(c addr.PN) bool { return c == 0 }
	p := NewTwoSize(cfg)
	// Chunk 0: vetoed forever, stays small no matter how dense.
	for i := 0; i < addr.BlocksPerChunk; i++ {
		res := p.Assign(addr.VA(i * addr.BlockSize))
		if res.Event != EventNone || res.Page.Shift != addr.BlockShift {
			t.Fatalf("vetoed chunk promoted: %+v", res)
		}
	}
	// Chunk 1: promotes normally.
	var last Result
	for i := 0; i < 4; i++ {
		last = p.Assign(addr.VA(addr.ChunkSize) + addr.VA(i*addr.BlockSize))
	}
	if last.Event != EventPromote || last.Chunk != 1 {
		t.Fatalf("unvetoed chunk should promote: %+v", last)
	}
}
