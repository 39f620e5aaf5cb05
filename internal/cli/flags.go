package cli

import (
	"strconv"
	"strings"

	"twopage/internal/addr"
	"twopage/internal/tlb"
	"twopage/internal/walk"
)

// MaxWindow bounds the policy window T. The window tracker keeps a ring
// of T page numbers, 8 bytes each, so the limit is a 512 MiB ring; a
// stream needs 2^29 references before its default refs/8 reaches it.
const MaxWindow = 1 << 26

// Window resolves the policy window -T over a stream of refs
// references: t itself, or refs/8 when t is 0. The window, typed or
// derived, must be positive, fit an int, and be at most MaxWindow.
func Window[T int | uint64](t T, refs uint64) (int, error) {
	if t == 0 {
		switch w := refs / 8; {
		case w == 0:
			return 0, Usagef("-T", "defaults to refs/8, which is 0 for %d refs; set -T or -refs", refs)
		case w > MaxWindow:
			return 0, Usagef("-T", "defaults to refs/8 = %d, above the %d-reference limit; set -T", w, MaxWindow)
		default:
			return int(w), nil
		}
	}
	if t < 0 {
		return 0, Usagef("-T", "must be positive, got %d", t)
	}
	if uint64(t) > MaxWindow {
		return 0, Usagef("-T", "%d is above the %d-reference limit", t, MaxWindow)
	}
	return int(t), nil
}

// Sizes parses -sizes: comma-separated power-of-two page sizes in bytes.
func Sizes(s string) ([]addr.PageSize, error) {
	var sizes []addr.PageSize
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil || !addr.PageSize(v).Valid() {
			return nil, Usagef("-sizes", "%q is not a power-of-two size in bytes", part)
		}
		sizes = append(sizes, addr.PageSize(v))
	}
	return sizes, nil
}

// TLB resolves -entries, -ways (0 = fully associative) and -index
// (small, large, exact, or classK) into a TLB configuration over
// classes; zero classes keep the tlb package's 4KB/32KB default. It
// validates through the tlb package's own checks, one flag at a time,
// so the error names the flag at fault.
func TLB(entries, ways int, index string, classes addr.SizeClasses) (tlb.Config, error) {
	ix, ok := map[string]tlb.IndexScheme{
		"small": tlb.IndexSmall, "large": tlb.IndexLarge, "exact": tlb.IndexExact,
	}[index]
	if !ok {
		k, err := strconv.Atoi(strings.TrimPrefix(index, "class"))
		if !strings.HasPrefix(index, "class") || err != nil || k < 0 || k >= addr.MaxSizeClasses {
			return tlb.Config{}, Usagef("-index", "unknown index scheme %q", index)
		}
		ix = tlb.IndexByClass(k)
	}
	cfg := tlb.Config{Entries: entries, Ways: entries}
	if _, err := cfg.Normalized(); err != nil {
		return tlb.Config{}, Usage("-entries", err)
	}
	if ways != 0 {
		cfg.Ways = ways
	}
	if _, err := cfg.Normalized(); err != nil {
		return tlb.Config{}, Usage("-ways", err)
	}
	cfg.Index = ix
	if classes.N() > 0 {
		cfg.Shifts = classes.Shifts()
	}
	if _, err := cfg.Normalized(); err != nil {
		return tlb.Config{}, Usage("-index", err)
	}
	return cfg, nil
}

// Walk resolves -walkpwc and -walkmem into a walk-model configuration:
// 0 keeps the walk package default, a negative value disables the
// component. Classes stay zero, for core to derive from the policy. It
// validates through walk.New, one flag at a time.
func Walk(pwc, memBytes int) (walk.Config, error) {
	cfg := walk.Default(addr.SizeClasses{})
	if pwc < 0 {
		cfg.PWCEntries = 0
	} else if pwc > 0 {
		cfg.PWCEntries = pwc
	}
	if memBytes < 0 {
		cfg.MemBytes = 0
	} else if memBytes > 0 {
		cfg.MemBytes = memBytes
	}
	check := cfg
	check.Classes = addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift)
	check.MemBytes = 0
	if _, err := walk.New(check); err != nil {
		return walk.Config{}, Usage("-walkpwc", err)
	}
	check.MemBytes = cfg.MemBytes
	if _, err := walk.New(check); err != nil {
		return walk.Config{}, Usage("-walkmem", err)
	}
	return cfg, nil
}

// Warmup rejects -warmup without -shards > 1: the serial pass replays
// no warm-up, so ignoring the flag would report cold-state metrics as
// if they were warm.
func Warmup(warmup uint64, shards int) error {
	if warmup > 0 && shards <= 1 {
		return Usagef("-warmup", "requires -shards > 1 (the serial pass replays no warm-up)")
	}
	return nil
}
