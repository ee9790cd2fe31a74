// Package pool is the pipeline's work-scheduling layer: a bounded worker
// pool with ordered-result fan-in for the coarse-grained stages (per-app
// profiling, per-variant encoding, per-sample training steps, per-fold
// evaluation). Nothing finer is parallel: one program's sub-PEGs are too
// small for a kernel to amortize a hand-off between goroutines.
//
// Determinism is the design center. Map/MapWorker return results in input
// index order no matter how jobs interleave; workers claim indices from a
// shared counter in increasing order, so after a failure the lowest-index
// error — the one the serial loop would have hit first — is the one
// returned. The caller is always worker 0, so Workers == 1 runs every job
// inline on the caller's goroutine with no channels or goroutines at all.
//
// Panics inside jobs are converted to errors through the same
// faults.Capture boundary the ingestion pipeline uses, so one poisoned
// work item cannot take down a fan-out. Fan-outs export mvpar_pool_*
// metrics through internal/obs.
package pool

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mvpar/internal/faults"
	"mvpar/internal/obs"
)

// Config controls one fan-out.
type Config struct {
	// Workers is the maximum number of concurrent jobs. <= 0 uses
	// DefaultParallelism(); 1 runs every job inline on the caller's
	// goroutine in index order.
	Workers int
	// Ctx, when non-nil, cancels the fan-out: no new jobs start once the
	// context is done and Map returns the context's error (see
	// MapWorker). Jobs already in flight run to completion (they receive
	// the same ctx through their closures if they want to abort mid-job).
	Ctx context.Context
}

// defaultParallelism holds the process-wide --jobs override; 0 means
// "use runtime.NumCPU()".
var defaultParallelism atomic.Int64

// SetDefaultParallelism sets the process-wide default worker count, the
// one worker-count setting: the CLIs wire their --jobs flag here, and
// every fan-out that leaves Config.Workers at zero follows it. n <= 0
// restores the runtime.NumCPU() default.
func SetDefaultParallelism(n int) {
	if n < 0 {
		n = 0
	}
	defaultParallelism.Store(int64(n))
}

// DefaultParallelism returns the worker count used when a Config leaves
// Workers at zero: the --jobs override if set, else runtime.NumCPU().
func DefaultParallelism() int {
	if n := defaultParallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.NumCPU()
}

// Map runs fn(i) for every i in [0, n) and returns the results in index
// order. See MapWorker for scheduling, error and cancellation semantics.
func Map[T any](cfg Config, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapWorker(cfg, n, func(_, i int) (T, error) { return fn(i) })
}

// MapWorker is Map with the worker index (0 <= worker < effective worker
// count) passed to fn, so callers can keep per-worker state — model
// replicas, gradient buffers — without locking. Each worker processes its
// jobs sequentially. The caller runs as worker 0 and workers-1
// goroutines join it, so a one-worker fan-out starts no goroutine and
// runs every job in index order on the caller's goroutine.
//
// Error semantics: the first failing job stops the scheduling of jobs with
// higher indices; jobs already claimed run to completion. Because indices
// are claimed in increasing order, every job below the failing one
// completes, so the error returned (the lowest-index failure) is exactly
// the error the serial loop would have hit first. Panics are recovered via
// faults.Capture and surface as *faults.PanicError.
//
// Cancellation: once cfg.Ctx is done no further job starts. If every
// job still completed, MapWorker returns nil. Otherwise it returns the
// lowest-index job error if it wraps ctx.Err() (a job that saw the
// deadline and named its stage), and ctx.Err() otherwise, so the error
// is the same at every worker count.
func MapWorker[T any](cfg Config, n int, fn func(worker, i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = DefaultParallelism()
	}
	if workers > n {
		workers = n
	}
	start := time.Now()
	obs.GetCounter("mvpar_pool_fanouts_total").Inc()

	if workers == 1 {
		// Nothing shares the state, so it stays on this stack and a
		// one-worker fan-out allocates nothing beyond its results.
		var f fanout[T]
		f.init(cfg.Ctx, fn, results)
		return results, f.finish(start, f.work(0))
	}
	f := new(fanout[T])
	f.init(cfg.Ctx, fn, results)
	failures := make([]jobError, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			failures[w] = f.work(w)
		}(w)
	}
	failures[0] = f.work(0)
	wg.Wait()
	low := failures[0]
	for _, fe := range failures[1:] {
		if fe.err != nil && (low.err == nil || fe.i < low.i) {
			low = fe
		}
	}
	return results, f.finish(start, low)
}

// fanout is the state the workers of one MapWorker call share. It holds
// no lock: a worker keeps its own failure, so a one-worker fan-out can
// keep the state on the caller's stack.
type fanout[T any] struct {
	ctx     context.Context
	fn      func(worker, i int) (T, error)
	results []T

	next      atomic.Int64 // the next job index to claim
	failedMin atomic.Int64 // the lowest failed index, len(results) if none
	completed atomic.Int64
}

// jobError is a failed job's index and error; the zero value is no
// failure.
type jobError struct {
	i   int64
	err error
}

// init points f at one fan-out's inputs; no job has failed yet.
func (f *fanout[T]) init(ctx context.Context, fn func(worker, i int) (T, error), results []T) {
	f.ctx, f.fn, f.results = ctx, fn, results
	f.failedMin.Store(int64(len(results)))
}

// work is the scheduling loop every worker runs: claim the next index
// and run its job, until none is left, the context is done, a lower
// index has failed (jobs below a failure still run, so the minimum is
// exact) or this worker's job fails. It returns that failure.
func (f *fanout[T]) work(w int) jobError {
	n := int64(len(f.results))
	for {
		i := f.next.Add(1) - 1
		if i >= n || (f.ctx != nil && f.ctx.Err() != nil) || i > f.failedMin.Load() {
			return jobError{}
		}
		err := faults.Capture(func() error {
			v, e := f.fn(w, int(i))
			f.results[i] = v
			return e
		})
		if err != nil {
			// Every index this worker could claim next is higher.
			for {
				low := f.failedMin.Load()
				if low <= i || f.failedMin.CompareAndSwap(low, i) {
					return jobError{i: i, err: err}
				}
			}
		}
		f.completed.Add(1)
	}
}

// finish publishes the fan-out's pool metrics (completed job count and
// wall time) and returns its error: nil when every job completed, even
// if the context is done by now. With the context done and a job skipped
// or failed, that is the lowest-index failure if it wraps the context's
// error, else the context's error; otherwise it is the lowest-index
// failure.
func (f *fanout[T]) finish(start time.Time, low jobError) error {
	obs.GetCounter("mvpar_pool_jobs_total").Add(f.completed.Load())
	obs.GetHistogram("mvpar_pool_fanout_seconds").Observe(time.Since(start).Seconds())
	if low.err == nil && f.completed.Load() == int64(len(f.results)) {
		return nil
	}
	if f.ctx != nil && f.ctx.Err() != nil && (low.err == nil || !errors.Is(low.err, f.ctx.Err())) {
		return f.ctx.Err()
	}
	return low.err
}
