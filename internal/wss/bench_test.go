package wss

import (
	"testing"

	"twopage/internal/addr"
	"twopage/internal/kernelref"
)

var benchShifts = []uint{addr.Shift4K, addr.Shift8K, addr.Shift16K, addr.Shift32K, addr.Shift64K}

// BenchmarkStaticStep measures the htab-based working-set kernel.
func BenchmarkStaticStep(b *testing.B) {
	stream := kernelref.VAStream(1 << 16)
	s := NewStatic(1<<20, benchShifts...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(stream[i&(1<<16-1)])
	}
}
