package tlb

import (
	"math/rand"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/policy"
)

// refEntry and refTLB are the array-of-structs set-associative TLB the
// struct-of-arrays SetAssoc replaced, kept as the reference model for
// TestSetAssocDifferential and FuzzSetAssoc: one struct per way, one
// combined scan per lookup.
type refEntry struct {
	pn       addr.PN
	shift    uint16
	valid    bool
	lastUse  uint64
	loadedAt uint64
}

type refTLB struct {
	geom     *SetAssoc // set selection only; its entries are never touched
	ways     int
	repl     Replacement
	entries  []refEntry
	clock    uint64
	rng      uint64
	stats    Stats
	occupied int
}

func newRefTLB(t *SetAssoc) *refTLB {
	return &refTLB{
		geom:    t,
		ways:    t.cfg.Ways,
		repl:    t.cfg.Repl,
		entries: make([]refEntry, t.cfg.Entries),
		rng:     t.rng,
		stats:   NewStats(t.classes),
	}
}

func (r *refTLB) set(va addr.VA, p policy.Page) []refEntry {
	base := int(r.geom.index(va, p)) * r.ways
	return r.entries[base : base+r.ways]
}

func (r *refTLB) pickVictim(set []refEntry) int {
	switch r.repl {
	case FIFO:
		v, oldest := 0, set[0].loadedAt
		for i := 1; i < len(set); i++ {
			if set[i].loadedAt < oldest {
				v, oldest = i, set[i].loadedAt
			}
		}
		return v
	case Random:
		r.rng ^= r.rng << 13
		r.rng ^= r.rng >> 7
		r.rng ^= r.rng << 17
		return int(r.rng % uint64(len(set)))
	default:
		v, oldest := 0, set[0].lastUse
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < oldest {
				v, oldest = i, set[i].lastUse
			}
		}
		return v
	}
}

// insert is the shared miss path of Access and Insert: scan for a hit
// (refreshing it) or the first invalid way, else evict.
func (r *refTLB) insert(va addr.VA, p policy.Page) (hit bool, evicted policy.Page, hadEvict bool) {
	set := r.set(va, p)
	victim := -1
	for i := range set {
		e := &set[i]
		if !e.valid {
			if victim < 0 {
				victim = i
			}
			continue
		}
		if e.pn == p.Number && uint(e.shift) == p.Shift {
			e.lastUse = r.clock
			return true, policy.Page{}, false
		}
	}
	if victim < 0 {
		victim = r.pickVictim(set)
		evicted = policy.Page{Number: set[victim].pn, Shift: uint(set[victim].shift)}
		hadEvict = true
	} else {
		r.occupied++
	}
	set[victim] = refEntry{pn: p.Number, shift: uint16(p.Shift), valid: true, lastUse: r.clock, loadedAt: r.clock}
	return false, evicted, hadEvict
}

func (r *refTLB) Access(va addr.VA, p policy.Page) bool {
	r.clock++
	r.stats.Accesses++
	hit, _, _ := r.insert(va, p)
	r.stats.Count(r.geom.classes.ClassOf(p.Shift), hit)
	return hit
}

func (r *refTLB) Insert(va addr.VA, p policy.Page) (policy.Page, bool) {
	r.clock++
	_, evicted, hadEvict := r.insert(va, p)
	return evicted, hadEvict
}

func (r *refTLB) Probe(va addr.VA, p policy.Page) bool {
	set := r.set(va, p)
	for i := range set {
		e := &set[i]
		if e.valid && e.pn == p.Number && uint(e.shift) == p.Shift {
			r.clock++
			e.lastUse = r.clock
			return true
		}
	}
	return false
}

func (r *refTLB) Invalidate(p policy.Page) int {
	n := 0
	for i := range r.entries {
		e := &r.entries[i]
		if e.valid && e.pn == p.Number && uint(e.shift) == p.Shift {
			e.valid = false
			n++
		}
	}
	r.stats.Invalidations += uint64(n)
	r.occupied -= n
	return n
}

func (r *refTLB) Flush() {
	clear(r.entries)
	r.occupied = 0
}

func (r *refTLB) Contains(p policy.Page) bool {
	for _, e := range r.entries {
		if e.valid && e.pn == p.Number && uint(e.shift) == p.Shift {
			return true
		}
	}
	return false
}

// diffShifts are the hierarchies the differential covers: the paper's
// pair, a three-size ladder and a four-size one with uneven steps.
var diffShifts = [][]uint{
	{addr.Shift4K, addr.Shift32K},
	{addr.Shift4K, addr.Shift32K, addr.Shift256K},
	{addr.Shift4K, 13, 16, 20},
}

// diffConfig decodes a configuration from five bytes: geometry (1 to 32
// entries; direct-mapped, 2-way, 4-way or fully associative), index
// scheme (small, large, exact or a class), replacement and hierarchy.
func diffConfig(b [5]byte) Config {
	shifts := diffShifts[int(b[3])%len(diffShifts)]
	entries := 1 << (b[0] % 6)
	ways := entries
	if w := 1 << (b[1] % 3); b[1]%4 != 3 && w <= entries {
		ways = w
	}
	index := IndexScheme(b[2] % 3)
	if b[2]%4 == 3 {
		index = IndexByClass(int(b[2]/4) % len(shifts))
	}
	return Config{Entries: entries, Ways: ways, Index: index,
		Repl: Replacement(b[4] % 3), Shifts: shifts, Seed: uint64(b[4] / 3)}
}

// runSetAssocOps applies the operations encoded in ops — four bytes
// each: operation, size class, page number, offset — to a SetAssoc and
// the reference model, failing at the first return value, Stats,
// Occupied or Contains answer that differs. Page numbers come from a
// small range so sets fill, evict and collide across classes.
func runSetAssocOps(t *testing.T, cfg Config, ops []byte) {
	t.Helper()
	got, err := New(cfg)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	want := newRefTLB(MustNew(cfg))
	classes := got.Classes()
	for i := 0; i+4 <= len(ops); i += 4 {
		op, k := ops[i]%16, int(ops[i+1])%classes.N()
		shift := classes.Shift(k)
		p := policy.Page{Number: addr.PN(ops[i+2] % 24), Shift: shift}
		// Any address inside the page: the offset's block bits pick the
		// set under small indexing of a large page.
		va := p.Base() + addr.VA((uint64(ops[i+3])<<addr.BlockShift)&(1<<shift-1))
		switch {
		case op < 8:
			if g, w := got.Access(va, p), want.Access(va, p); g != w {
				t.Fatalf("%+v op %d: Access(%v) = %v, reference %v", cfg, i/4, p, g, w)
			}
		case op < 10:
			if g, w := got.Probe(va, p), want.Probe(va, p); g != w {
				t.Fatalf("%+v op %d: Probe(%v) = %v, reference %v", cfg, i/4, p, g, w)
			}
		case op < 13:
			ge, gok := got.Insert(va, p)
			we, wok := want.Insert(va, p)
			if ge != we || gok != wok {
				t.Fatalf("%+v op %d: Insert(%v) evicted %v,%v, reference %v,%v", cfg, i/4, p, ge, gok, we, wok)
			}
		case op < 15:
			if g, w := got.Invalidate(p), want.Invalidate(p); g != w {
				t.Fatalf("%+v op %d: Invalidate(%v) = %d, reference %d", cfg, i/4, p, g, w)
			}
		default:
			got.Flush()
			want.Flush()
		}
		if got.Stats() != want.stats || got.Occupied() != want.occupied {
			t.Fatalf("%+v op %d: stats %+v occupied %d, reference %+v occupied %d",
				cfg, i/4, got.Stats(), got.Occupied(), want.stats, want.occupied)
		}
		if g, w := got.Contains(p), want.Contains(p); g != w {
			t.Fatalf("%+v op %d: Contains(%v) = %v, reference %v", cfg, i/4, p, g, w)
		}
	}
}

// TestSetAssocDifferential checks the struct-of-arrays SetAssoc against
// the array-of-structs reference model under LRU, FIFO and Random
// replacement; small, large, exact and per-class indexing; direct-
// mapped to fully associative geometries; and 2-, 3- and 4-class
// hierarchies, over random interleavings of Access, Probe, Insert,
// Invalidate and Flush.
func TestSetAssocDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := make([]byte, 4*4000)
	for geom := byte(0); geom < 6; geom++ {
		for ways := byte(0); ways < 4; ways++ {
			for index := byte(0); index < 12; index++ {
				for h := byte(0); h < byte(len(diffShifts)); h++ {
					for repl := byte(0); repl < 3; repl++ {
						cfg := diffConfig([5]byte{geom, ways, index, h, repl + 3*byte(rng.Intn(8))})
						rng.Read(ops)
						runSetAssocOps(t, cfg, ops)
					}
				}
			}
		}
	}
}

// FuzzSetAssoc is TestSetAssocDifferential over fuzzer-chosen
// configurations and operation sequences.
func FuzzSetAssoc(f *testing.F) {
	f.Add([]byte{4, 3, 2, 0, 0, 0, 0, 1, 0, 0, 1, 2, 3})
	f.Add([]byte{3, 1, 0, 1, 2, 15, 1, 5, 9, 10, 2, 5, 9, 13, 0, 5, 9})
	f.Add([]byte{5, 0, 7, 2, 1, 0, 3, 23, 255, 12, 3, 23, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		cfg := diffConfig([5]byte(data[:5]))
		runSetAssocOps(t, cfg, data[5:])
	})
}
