package window

import (
	"testing"

	"twopage/internal/kernelref"
)

// BenchmarkTrackerStep measures the htab-based window kernel.
func BenchmarkTrackerStep(b *testing.B) {
	stream := kernelref.BlockStream(1 << 16)
	w := New(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step(stream[i&(1<<16-1)])
	}
}
