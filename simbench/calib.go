package main

import (
	"sync"
	"time"
)

// The host this benchmark runs on is shared: on a 2-vCPU Intel Xeon VM,
// neighbouring tenants slowed a 10^7-reference worm pass from 0.84 s to
// 1.44 s between 20-second windows (medians of 15 passes), and process
// CPU time rose with wall time, so the loss is contention for the
// core's caches and memory, not stolen time. A run's raw timings
// therefore say as much about the neighbours as about the simulator.
//
// Every end-to-end timing is instead expressed in reference-host time:
// each operation is followed by a fixed calibration kernel, and the
// operation's timings are scaled by calibrationRef over the kernel's
// time, so a host running at half speed doubles both and the ratio
// stays put. The kernel mixes the simulator's two kinds of host work:
// random reads from a table larger than the L2 cache, as the page-table
// and working-set lookups make, and a byte-stream decode, as the trace
// reader makes. Over the same 4-minute stretch, scaling by a kernel of
// this kind (it also did hashed-map lookups) cut the spread of the pass
// time's 20-second medians from 23% to 4% (IQR over median).
//
// The kernel is the benchmark's own code and no change to the simulator
// can move it, so a simulator speed-up shows in full.

// calibrationRef is the kernel's single-thread time on the reference
// host, the 2-vCPU Xeon VM above in a quiet stretch. It only sets the
// scale of the reported timings; any fixed value would do.
const calibrationRef = 80 * time.Millisecond

const (
	calTableWords = 1 << 20 // 8 MiB of random-read table
	calStreamLen  = 4 << 20 // 4 MiB of variable-length-coded stream
	calReads      = 2_000_000
	calDecodes    = 5 // passes over the stream
)

// calibrator holds the kernel's fixed inputs, generated once from a
// constant seed and only read afterwards, so concurrent kernels may
// share them.
type calibrator struct {
	table  []uint64
	stream []byte
}

func newCalibrator() *calibrator {
	c := &calibrator{table: make([]uint64, calTableWords), stream: make([]byte, calStreamLen)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range c.table {
		x = lcg(x)
		c.table[i] = x
	}
	for i := range c.stream {
		x = lcg(x)
		b := byte(x >> 56)
		if x>>40&3 != 0 { // three bytes in four end a value
			b &= 0x7f
		}
		c.stream[i] = b
	}
	return c
}

func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// kernel runs the calibration work once and returns a value that
// depends on all of it, so the compiler cannot drop any.
func (c *calibrator) kernel() uint64 {
	var sum uint64
	idx := uint64(1)
	for range calReads {
		idx = lcg(idx)
		sum += c.table[idx>>40&(calTableWords-1)]
	}
	for range calDecodes {
		var v uint64
		var shift uint
		for _, b := range c.stream {
			v |= uint64(b&0x7f) << shift
			if b < 0x80 {
				sum += v
				v, shift = 0, 0
			} else {
				shift += 7
			}
		}
	}
	return sum
}

// speed runs the kernel on threads goroutines at once, as many as the
// operation it calibrates keeps busy, and returns calibrationRef over
// the wall time they took: the factor that converts this moment's host
// time into reference-host time.
func (c *calibrator) speed(threads int) float64 {
	var wg sync.WaitGroup
	sums := make([]uint64, threads)
	t0 := time.Now()
	for i := range threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i] = c.kernel()
		}()
	}
	wg.Wait()
	took := time.Since(t0)
	calSink = sums[0]
	return float64(calibrationRef) / float64(took)
}

// calSink keeps the kernel's result live.
var calSink uint64
