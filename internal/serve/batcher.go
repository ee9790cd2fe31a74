package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"mvpar/internal/core"
	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
	"mvpar/internal/pool"
)

// Submission errors the admission layer maps to HTTP status codes.
var (
	// ErrQueueFull rejects a request because the admission queue already
	// holds MaxQueue requests — the load-shedding (429) path.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDraining rejects a request because the server is shutting down
	// (503): in-flight work finishes, new work goes elsewhere.
	ErrDraining = errors.New("serve: server draining")
)

// batchRequest is one admitted classify request travelling through the
// batcher. done is buffered so the executor never blocks on a client
// that gave up.
type batchRequest struct {
	ctx  context.Context
	name string
	src  string
	key  string // generation-scoped cache key, "" when caching is off
	// gen is the model generation the request was pinned to at admission
	// (it registered with gen.inflight); execution runs against this
	// generation even if a hot swap lands mid-flight, and the executor
	// releases the registration when the result is delivered.
	gen  *generation
	done chan batchResult
	// span is the request's "batcher" trace span (nil when untraced):
	// opened at admission, ended when execution starts, so its duration
	// is queue wait plus the coalesce window.
	span *trace.Span
}

// batchResult is the outcome delivered back to the waiting handler.
type batchResult struct {
	preds []core.LoopPrediction
	err   error
	// gen is the generation that produced the answer.
	gen uint64
	// degraded names the degradation-ladder rung that answered (empty on
	// the normal path).
	degraded []string
}

// batcher is the micro-batching admission layer: requests enter a bounded
// queue (load-shedding past MaxQueue), a dispatcher coalesces them into
// batches of up to maxBatch within a batch window, and each batch fans
// out on the shared worker pool with bounded concurrency. Batching
// amortizes scheduling overhead under load without adding latency when
// idle: the window only starts once a first request is waiting.
type batcher struct {
	queue    chan *batchRequest
	maxBatch int
	window   time.Duration
	workers  int
	exec     func(*batchRequest)

	// gate orders submissions against drain: submit holds the read side
	// while it checks accepting and registers with inflight, drain flips
	// accepting under the write side before waiting, so inflight.Add can
	// never race with inflight.Wait.
	gate      sync.RWMutex
	accepting bool
	inflight  sync.WaitGroup

	stop     chan struct{}
	stopOnce sync.Once
	stopped  chan struct{}
}

// queueDepthGauge reports the admission queue's occupancy.
const queueDepthGauge = "mvpar_http_queue_depth"

func newBatcher(maxBatch int, window time.Duration, maxQueue, workers int, exec func(*batchRequest)) *batcher {
	return &batcher{
		queue:    make(chan *batchRequest, maxQueue),
		maxBatch: maxBatch,
		window:   window,
		workers:  workers,
		exec:     exec,
		stop:     make(chan struct{}),
		stopped:  make(chan struct{}),
	}
}

// start opens admission and launches the dispatcher goroutine.
func (b *batcher) start() {
	b.gate.Lock()
	b.accepting = true
	b.gate.Unlock()
	go b.loop()
}

// submit admits one request, or rejects it with ErrQueueFull /
// ErrDraining without blocking.
func (b *batcher) submit(r *batchRequest) error {
	b.gate.RLock()
	defer b.gate.RUnlock()
	if !b.accepting {
		return ErrDraining
	}
	// Register before the send: the dispatcher may pull the request and
	// call Done the instant it lands on the queue, so an Add after a
	// successful send could run after that Done and drive the counter
	// negative. The shed path undoes the registration.
	b.inflight.Add(1)
	select {
	case b.queue <- r:
		obs.GetGauge(queueDepthGauge).Set(float64(len(b.queue)))
		return nil
	default:
		b.inflight.Done()
		obs.GetCounter("mvpar_http_shed_total").Inc()
		return ErrQueueFull
	}
}

// drain closes admission, waits for every admitted request to finish,
// then stops the dispatcher. It is safe to call more than once.
func (b *batcher) drain(ctx context.Context) error {
	b.gate.Lock()
	b.accepting = false
	b.gate.Unlock()
	done := make(chan struct{})
	go func() {
		b.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	b.stopOnce.Do(func() { close(b.stop) })
	select {
	case <-b.stopped:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// loop is the dispatcher: block for a first request, coalesce follow-ups
// until the batch window elapses or the batch is full, execute, repeat.
// While a batch executes nothing is pulled from the queue, so sustained
// overload backs up into submit's non-blocking send and sheds with 429 —
// exactly the bounded-queue admission control the server advertises.
func (b *batcher) loop() {
	defer close(b.stopped)
	for {
		var first *batchRequest
		select {
		case first = <-b.queue:
		case <-b.stop:
			return
		}
		batch := append(make([]*batchRequest, 0, b.maxBatch), first)
		timer := time.NewTimer(b.window)
	collect:
		for len(batch) < b.maxBatch {
			select {
			case r := <-b.queue:
				batch = append(batch, r)
			case <-timer.C:
				break collect
			case <-b.stop:
				break collect
			}
		}
		timer.Stop()
		b.run(batch)
	}
}

// run executes one batch on the shared worker pool. Request failures
// (including panics — exec captures them) travel back per-request; the
// fan-out itself never fails, so one poisoned request cannot sink its
// batchmates.
func (b *batcher) run(batch []*batchRequest) {
	obs.GetCounter("mvpar_http_batches_total").Inc()
	obs.GetHistogram("mvpar_http_batch_size").Observe(float64(len(batch)))
	pool.Map(pool.Config{Workers: b.workers}, len(batch), func(i int) (struct{}, error) {
		defer b.inflight.Done()
		b.exec(batch[i])
		return struct{}{}, nil
	})
	obs.GetGauge(queueDepthGauge).Set(float64(len(b.queue)))
}
