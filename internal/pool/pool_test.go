package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mvpar/internal/faults"
)

// TestMapOrdered checks results come back in input order for every worker
// count, including counts far above the job count.
func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		got, err := Map(Config{Workers: workers}, 50, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapWorkerIndex checks the worker index stays in [0, workers) and
// that each worker runs its jobs sequentially (no two jobs of the same
// worker overlap).
func TestMapWorkerIndex(t *testing.T) {
	const workers, jobs = 4, 64
	var active [workers]atomic.Int32
	_, err := MapWorker(Config{Workers: workers}, jobs, func(w, i int) (struct{}, error) {
		if w < 0 || w >= workers {
			return struct{}{}, fmt.Errorf("worker index %d out of range", w)
		}
		if active[w].Add(1) != 1 {
			return struct{}{}, fmt.Errorf("worker %d ran two jobs at once", w)
		}
		time.Sleep(time.Millisecond)
		active[w].Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMapMinIndexError checks the error returned is the one the serial
// loop would have hit first: the lowest failing index, even when a
// higher-index job fails earlier in wall time.
func TestMapMinIndexError(t *testing.T) {
	errWant := errors.New("boom 3")
	_, err := Map(Config{Workers: 4}, 32, func(i int) (int, error) {
		switch i {
		case 3:
			// Fail late so higher-index failures land first.
			time.Sleep(5 * time.Millisecond)
			return 0, errWant
		case 7, 20:
			return 0, fmt.Errorf("boom %d", i)
		}
		return i, nil
	})
	if !errors.Is(err, errWant) {
		t.Fatalf("got error %v, want lowest-index error %v", err, errWant)
	}
}

// TestMapErrorUnwrapped checks job errors come back exactly as returned
// (callers type-assert *faults.StageError to name the failed stage).
func TestMapErrorUnwrapped(t *testing.T) {
	want := &faults.StageError{Program: "p", Stage: faults.StageEncode, Err: errors.New("x")}
	for _, workers := range []int{1, 4} {
		_, err := Map(Config{Workers: workers}, 4, func(i int) (int, error) {
			if i == 2 {
				return 0, want
			}
			return 0, nil
		})
		if err != want {
			t.Fatalf("workers=%d: got %v (%T), want the job's own error", workers, err, err)
		}
	}
}

// TestMapPanicCaptured checks a panicking job surfaces as *faults.PanicError
// instead of crashing the process, on both the inline and parallel paths.
func TestMapPanicCaptured(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(Config{Workers: workers}, 8, func(i int) (int, error) {
			if i == 5 {
				panic("encoder bug")
			}
			return i, nil
		})
		var pe *faults.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v, want *faults.PanicError", workers, err)
		}
	}
}

// TestMapCancellation checks a cancelled context stops the fan-out and is
// returned even when jobs also fail.
func TestMapCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		_, err := Map(Config{Workers: workers, Ctx: ctx}, 1000, func(i int) (int, error) {
			if ran.Add(1) == 3 {
				cancel()
			}
			if i > 500 {
				return 0, errors.New("job error must not mask cancellation")
			}
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n >= 1000 {
			t.Fatalf("workers=%d: cancellation did not stop scheduling (%d jobs ran)", workers, n)
		}
		cancel()
	}
}

// TestMapCancellationKeepsJobError checks that when the context ends, a
// lowest-index job error that wraps the context's error is returned as
// it is (it names where the deadline hit), at every worker count.
func TestMapCancellationKeepsJobError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := Map(Config{Workers: workers, Ctx: ctx}, 8, func(i int) (int, error) {
			if i == 2 {
				<-ctx.Done()
				return 0, fmt.Errorf("job 2: %w", ctx.Err())
			}
			return i, nil
		})
		cancel()
		if err == nil || err.Error() != "job 2: context deadline exceeded" {
			t.Fatalf("workers=%d: got %v, want job 2's error", workers, err)
		}
	}
}

// TestMapCancelledAfterLastJob checks that a context that ends after
// every job has completed is no failure: the last job cancels once all
// the others are done, and Map returns every result and nil, at every
// worker count.
func TestMapCancelledAfterLastJob(t *testing.T) {
	const n = 16
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var done atomic.Int64
		got, err := Map(Config{Workers: workers, Ctx: ctx}, n, func(i int) (int, error) {
			if i == n-1 {
				for done.Load() < n-1 {
					runtime.Gosched()
				}
				cancel()
			} else {
				done.Add(1)
			}
			return i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: got %v, want nil", workers, err)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: result %d = %d", workers, i, v)
			}
		}
	}
}

// TestMapFailFastSkips checks jobs above a failure stop being scheduled
// while everything below it still runs (the min-index guarantee).
func TestMapFailFastSkips(t *testing.T) {
	var ran atomic.Int64
	got, err := Map(Config{Workers: 2}, 10_000, func(i int) (int, error) {
		ran.Add(1)
		if i == 50 {
			return 0, errors.New("stop")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	for i := 0; i < 50; i++ {
		if got[i] != i {
			t.Fatalf("job %d below the failure did not complete", i)
		}
	}
	if n := ran.Load(); n >= 10_000 {
		t.Fatalf("fail-fast did not skip remaining jobs (%d ran)", n)
	}
}

// TestMapZeroAndDefaults checks n == 0 and Workers <= 0 behave.
func TestMapZeroAndDefaults(t *testing.T) {
	got, err := Map(Config{}, 0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(got) != 0 {
		t.Fatalf("n=0: got (%v, %v)", got, err)
	}
	if _, err := Map(Config{Workers: -3}, 4, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
}

// TestSetDefaultParallelism checks the --jobs override round-trips and
// that 0 restores the NumCPU default.
func TestSetDefaultParallelism(t *testing.T) {
	defer SetDefaultParallelism(0)
	SetDefaultParallelism(7)
	if got := DefaultParallelism(); got != 7 {
		t.Fatalf("DefaultParallelism() = %d, want 7", got)
	}
	SetDefaultParallelism(0)
	if got := DefaultParallelism(); got < 1 {
		t.Fatalf("DefaultParallelism() = %d, want >= 1", got)
	}
}

// TestForCoversRange checks For covers [0, n) exactly once for a spread
// of sizes, including n smaller than the worker count.
func TestForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		hits := make([]atomic.Int32, n)
		For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, hits[i].Load())
			}
		}
	}
}

// TestForNested checks a For body may itself call For (as a pool job
// running MatMul does) without deadlocking.
func TestForNested(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		total := atomic.Int64{}
		For(16, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				For(64, func(l, h int) { total.Add(int64(h - l)) })
			}
		})
		if total.Load() != 16*64 {
			t.Errorf("nested For covered %d elements, want %d", total.Load(), 16*64)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested For deadlocked")
	}
}

// TestMapStress interleaves many concurrent fan-outs; run under -race this
// is the pool's data-race check.
func TestMapStress(t *testing.T) {
	var wg atomic.Int64
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			_, err := MapWorker(Config{Workers: 3}, 200, func(w, i int) (int, error) {
				return g*i + w, nil
			})
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
