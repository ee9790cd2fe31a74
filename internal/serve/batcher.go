package serve

import (
	"context"
	"errors"
	"sync/atomic"

	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
	"mvpar/internal/pool"
)

// ErrQueueFull rejects a request because MaxQueue requests already wait
// for a worker slot — the load-shedding (429) path.
var ErrQueueFull = errors.New("serve: admission queue full")

// batcher is the admission layer: at most cap(slots) classifications run
// at once, each on its own handler goroutine, and at most maxQueue more
// requests wait for a slot; a request past that is shed with 429. A
// request never waits for company, so an idle server starts work at once.
// Draining is not its job: http.Server.Shutdown waits for every running
// handler, the ones still waiting here included.
type batcher struct {
	slots    chan struct{}
	maxQueue int64
	waiting  atomic.Int64
}

// queueDepthGauge reports how many requests wait for a worker slot.
const queueDepthGauge = "mvpar_http_queue_depth"

// newBatcher builds an admission layer with one slot per worker of the
// shared pool default (NumCPU or the --jobs override).
func newBatcher(maxQueue int) *batcher {
	return &batcher{
		slots:    make(chan struct{}, pool.DefaultParallelism()),
		maxQueue: int64(maxQueue),
	}
}

// run admits one request and calls fn on the caller's goroutine once a
// worker slot is free. fn gets the context of the request's "batcher"
// span, which covers only the slot wait, so the spans fn opens stay its
// children. run returns ErrQueueFull without waiting, and ctx's error
// when the deadline passes before a slot frees; fn has not run in either
// case.
func (b *batcher) run(ctx context.Context, fn func(context.Context)) error {
	bctx, span := trace.StartSpan(ctx, "batcher")
	err := b.acquire(bctx)
	span.End()
	if err != nil {
		return err
	}
	defer func() { <-b.slots }()
	fn(bctx)
	return nil
}

// acquire takes a worker slot, queueing as a waiter while none is free.
func (b *batcher) acquire(ctx context.Context) error {
	select {
	case b.slots <- struct{}{}:
		return nil
	default:
	}
	if b.waiting.Add(1) > b.maxQueue {
		b.waiting.Add(-1)
		obs.GetCounter("mvpar_http_shed_total").Inc()
		return ErrQueueFull
	}
	depth := obs.GetGauge(queueDepthGauge)
	depth.Add(1)
	defer func() {
		b.waiting.Add(-1)
		depth.Add(-1)
	}()
	select {
	case b.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
