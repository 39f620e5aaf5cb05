// Package engine schedules simulation work across a bounded worker
// pool, memoizing repeated units so that experiments sharing a
// (workload, refs, policy, TLB-configuration) unit get one result.
//
// The paper's evaluation is embarrassingly parallel: every per-workload
// simulation pass is independent of every other. Experiments submit
// their work up front (Unit, PassSpec, or opaque funcs via Go) and
// reassemble rows from the returned futures in their own deterministic
// order — so output is byte-identical regardless of the parallelism
// level. A Unit is the memo key and the scheduling record, not what
// executes: the worker that takes a two-size or ladder unit also claims
// every queued unit with the same (workload, refs, policy) and drives
// all their TLBs through one trace and policy pass, the one-pass
// evaluation of many TLB configurations the paper takes from tycho
// (Section 3.3). Each unit's result is split back out of that pass
// exactly as its solo run would have returned it.
//
// Two rules keep the pool deadlock-free:
//
//   - Work submitted to the pool must never block on another future;
//     only the submitting (coordinator) goroutine waits.
//   - Waiting never occupies a pool slot: Future.Wait parks outside the
//     semaphore.
//
// Results returned by memoized units are shared between all requesters
// and must be treated as read-only.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"twopage/internal/obs"
)

// Event describes one completed unit of work, for progress reporting.
// Observers are invoked from worker goroutines and must be safe for
// concurrent use.
type Event struct {
	// Key identifies the unit: a memoization key for keyed passes, or
	// the submitter-provided label for opaque tasks.
	Key string
	// CacheHit reports that the unit was served from the memo cache
	// without simulating.
	CacheHit bool
	// Done and Submitted are cumulative counters at the time of the
	// event (Done <= Submitted).
	Done, Submitted int64
	// Err is the unit's failure, if any.
	Err error
}

// Observer receives an Event per completed unit.
type Observer func(Event)

// Engine is a bounded worker pool with a memoizing result cache.
// The zero value is not usable; construct with New. An Engine may be
// shared by any number of concurrent experiments — sharing one across
// a whole `paper all` run is what deduplicates passes between
// experiments (e.g. fig5.1 and deltamp both need the 4KB/FA16 pass per
// workload).
type Engine struct {
	sem         chan struct{}
	parallelism int
	observer    Observer
	collector   *obs.Collector
	shard       ShardPlan

	mu     sync.Mutex
	passes map[string]*Future[any]
	queued map[string][]*queuedUnit // units not yet started, by fuse group

	submitted atomic.Int64
	done      atomic.Int64
	hits      atomic.Int64
	fused     atomic.Int64
}

// Option configures an Engine.
type Option func(*Engine)

// WithObserver registers a progress callback invoked once per completed
// unit. The callback runs on worker goroutines.
func WithObserver(fn Observer) Option {
	return func(e *Engine) { e.observer = fn }
}

// WithCollector attaches a run-report collector. Each keyed unit records
// its counters under its memoization key when it actually executes —
// cache hits record nothing — so the collected set is identical at any
// parallelism level.
func WithCollector(c *obs.Collector) Option {
	return func(e *Engine) { e.collector = c }
}

// Record forwards one executed unit's counters to the engine's
// collector, if any. Exposed for opaque Go tasks (which the engine
// cannot introspect); keyed units record automatically. Safe for
// concurrent use; a no-op without a collector.
func (e *Engine) Record(key string, c obs.Counters) {
	if e.collector != nil {
		e.collector.Record(key, c)
	}
}

// New returns an engine executing at most parallelism units at once.
// parallelism <= 0 selects runtime.NumCPU().
func New(parallelism int, opts ...Option) *Engine {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	e := &Engine{
		sem:         make(chan struct{}, parallelism),
		parallelism: parallelism,
		passes:      make(map[string]*Future[any]),
		queued:      make(map[string][]*queuedUnit),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Parallelism returns the pool size.
func (e *Engine) Parallelism() int { return e.parallelism }

// Stats is a snapshot of engine counters.
type Stats struct {
	Submitted int64 // units submitted (including cache hits)
	Done      int64 // units completed
	CacheHits int64 // units served from the memo cache
	// Fused counts units settled by a pass that another unit's worker
	// claimed them into. It depends on goroutine scheduling, so unlike
	// the counters above it is kept out of run reports.
	Fused int64
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Submitted: e.submitted.Load(),
		Done:      e.done.Load(),
		CacheHits: e.hits.Load(),
		Fused:     e.fused.Load(),
	}
}

// Future is the pending result of a submitted unit.
type Future[T any] struct {
	done chan struct{}
	val  T
	err  error
}

func newFuture[T any]() *Future[T] { return &Future[T]{done: make(chan struct{})} }

// Wait blocks until the unit completes or ctx is canceled, returning
// the result. Waiting does not occupy a pool slot.
func (f *Future[T]) Wait(ctx context.Context) (T, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// resolved returns a future already carrying (v, err).
func resolved[T any](v T, err error) *Future[T] {
	f := newFuture[T]()
	f.val, f.err = v, err
	close(f.done)
	return f
}

func (e *Engine) acquire(ctx context.Context) error {
	select {
	case e.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *Engine) release() { <-e.sem }

func (e *Engine) emit(key string, hit bool, err error) {
	done := e.done.Add(1)
	if e.observer != nil {
		e.observer(Event{
			Key:       key,
			CacheHit:  hit,
			Done:      done,
			Submitted: e.submitted.Load(),
			Err:       err,
		})
	}
}

// Go submits an opaque task to the pool and returns its future. The
// label only identifies the task in progress events. fn must not wait
// on other futures (it would hold a pool slot while parked, which can
// deadlock a pool of size 1); coordinators that need staged work wait
// between stages themselves.
func Go[T any](e *Engine, ctx context.Context, label string, fn func(context.Context) (T, error)) *Future[T] {
	e.submitted.Add(1)
	f := newFuture[T]()
	go func() {
		defer close(f.done)
		if err := e.acquire(ctx); err != nil {
			f.err = err
			e.emit(label, false, err)
			return
		}
		defer e.release()
		f.val, f.err = fn(ctx)
		e.emit(label, false, f.err)
	}()
	return f
}

// collect turns a slice of futures into a future of the slice, waiting
// on a plain goroutine (no pool slot).
func collect[T any](ctx context.Context, futs []*Future[T]) *Future[[]T] {
	out := newFuture[[]T]()
	go func() {
		defer close(out.done)
		vals := make([]T, len(futs))
		for i, f := range futs {
			v, err := f.Wait(ctx)
			if err != nil {
				out.err = err
				return
			}
			vals[i] = v
		}
		out.val = vals
	}()
	return out
}

// keyed memoizes fn under key. The first submitter executes fn on the
// pool; concurrent and later submitters share the same future. Failed
// units are evicted so a later submission retries (a canceled first
// requester must not poison the cache for live ones).
func keyed[T any](e *Engine, ctx context.Context, key string, fn func(context.Context) (T, error)) *Future[T] {
	e.submitted.Add(1)
	e.mu.Lock()
	if cached, ok := e.passes[key]; ok {
		e.mu.Unlock()
		e.hits.Add(1)
		return adapt[T](ctx, key, e, cached)
	}
	shared := newFuture[any]()
	e.passes[key] = shared
	e.mu.Unlock()

	f := newFuture[T]()
	go func() {
		defer close(shared.done)
		defer close(f.done)
		if err := e.acquire(ctx); err != nil {
			f.err, shared.err = err, err
			e.evict(key)
			e.emit(key, false, err)
			return
		}
		defer e.release()
		v, err := fn(ctx)
		if err != nil {
			f.err, shared.err = err, err
			e.evict(key)
			e.emit(key, false, err)
			return
		}
		f.val, shared.val = v, v
		e.emit(key, false, nil)
	}()
	return f
}

func (e *Engine) evict(key string) {
	e.mu.Lock()
	delete(e.passes, key)
	e.mu.Unlock()
}

// adapt narrows a cached Future[any] to a typed future, reporting the
// cache hit once resolved.
func adapt[T any](ctx context.Context, key string, e *Engine, shared *Future[any]) *Future[T] {
	f := newFuture[T]()
	go func() {
		defer close(f.done)
		v, err := shared.Wait(ctx)
		if err != nil {
			f.err = err
			e.emit(key, true, err)
			return
		}
		f.val = v.(T)
		e.emit(key, true, nil)
	}()
	return f
}
