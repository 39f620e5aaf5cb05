package main

import (
	"context"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// batchClock times the simulator's 8192-reference batches without
// touching the simulator: trace.DrainContext polls ctx.Err once before
// every Read, so the interval between two polls on one goroutine is the
// host time of one batch, decode included. The sharded path and the
// experiment suite open their own readers, which rules out a Reader
// wrapper; the context reaches every drain loop. When perGoroutine is
// set, polls are matched by goroutine so concurrent drains (shards,
// suite units) each time their own batches.
type batchClock struct {
	context.Context
	perGoroutine bool

	mu     sync.Mutex
	last   map[uint64]time.Time
	passes []clockPass
}

// clockPass holds one pass's batch host times, in microseconds, and the
// calibration speed that converts them to reference-host time.
type clockPass struct {
	batches []float64
	speed   float64
}

func newBatchClock(ctx context.Context, perGoroutine bool) *batchClock {
	return &batchClock{Context: ctx, perGoroutine: perGoroutine, last: map[uint64]time.Time{}}
}

// Err records a batch boundary and defers to the wrapped context.
func (c *batchClock) Err() error {
	now := time.Now()
	var id uint64
	if c.perGoroutine {
		id = goroutineID()
	}
	c.mu.Lock()
	if t, ok := c.last[id]; ok && len(c.passes) > 0 {
		p := &c.passes[len(c.passes)-1]
		p.batches = append(p.batches, float64(now.Sub(t))/1e3)
	}
	c.last[id] = now
	c.mu.Unlock()
	return c.Context.Err()
}

// startPass opens a new pass and forgets the previous pass's open
// intervals, so time spent between passes is never counted as a batch.
func (c *batchClock) startPass() {
	c.mu.Lock()
	clear(c.last)
	c.passes = append(c.passes, clockPass{})
	c.mu.Unlock()
}

// endPass records the calibration speed measured right after the pass.
func (c *batchClock) endPass(speed float64) {
	c.mu.Lock()
	c.passes[len(c.passes)-1].speed = speed
	c.mu.Unlock()
}

// percentiles returns each pass's q-quantile batch time in
// reference-host time and the total number of batches timed.
func (c *batchClock) percentiles(q float64) ([]float64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []float64
	n := 0
	for _, p := range c.passes {
		if len(p.batches) > 0 {
			out = append(out, quantile(p.batches, q)*p.speed)
			n += len(p.batches)
		}
	}
	return out, n
}

// goroutineID parses the current goroutine's id from its stack header
// ("goroutine 123 [running]:").
func goroutineID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, ch := range buf[len("goroutine "):n] {
		if ch < '0' || ch > '9' {
			break
		}
		id = id*10 + uint64(ch-'0')
	}
	return id
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
