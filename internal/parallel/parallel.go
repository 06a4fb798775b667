// Package parallel provides the small work-distribution helpers used by the
// modeling pipeline, the evaluation harness and the data generators: a
// bounded ForEach over an index range, ordered Map variants with per-item
// error capture and panic isolation, context-aware variants that stop
// dispatching on cancellation, and a deterministic seeded runner. It exists
// so the parallelism policy (worker counts, ordering guarantees, determinism
// and failure-isolation contracts) lives in one tested place instead of
// ad-hoc goroutine pools.
package parallel

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
)

// PanicError is a worker panic converted into a per-item error by MapErrCtx
// and MapSeeded: one crashing item must degrade into one failed result,
// never abort the whole run. Value is the recovered panic value and Stack
// the worker's stack at recovery time, so the crash stays debuggable after
// isolation.
type PanicError struct {
	Index int    // the item whose fn panicked
	Value any    // the recovered panic value
	Stack []byte // stack trace captured at recovery
}

// Error renders the panic without the stack; use Stack for forensics.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: item %d panicked: %v", e.Index, e.Value)
}

// ForEach runs fn(i) for every i in [0, n) using at most workers concurrent
// goroutines (GOMAXPROCS when workers <= 0). It returns after all calls
// complete. fn must handle its own synchronization for shared state; writing
// to disjoint slice elements indexed by i is safe.
func ForEach(n, workers int, fn func(i int)) {
	ForEachCtx(context.Background(), n, workers, fn)
}

// ForEachCtx is ForEach with cancellation: once ctx is done, no further
// items are dispatched (items already running finish normally) and the
// context's error is returned. fn is responsible for observing ctx itself if
// individual items are long-running. A nil error means every item ran.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			runItem(i, fn)
		}
		return ctx.Err()
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				runItem(i, fn)
			}
		}()
	}
	done := ctx.Done()
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		if !dispatchCtx(next, done, i) {
			break
		}
	}
	close(next)
	wg.Wait()
	return ctx.Err()
}

// clampWorkers resolves the effective worker count for n items.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// Map runs fn(i) for every i in [0, n) with bounded concurrency and collects
// the results in order.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// MapErrCtx runs fn(i) for every i in [0, n) with bounded concurrency and
// collects the results and errors in index order. Each item's error is
// captured independently — one failing item never hides the results of the
// others — which is the contract the profile-scale modeling pipeline needs:
// one unmodelable kernel must not fail the campaign. A panicking fn is
// recovered into a *PanicError for its item (same isolation contract: one
// crashing kernel must not abort the profile run). Once ctx is done,
// undispatched items are skipped and carry ctx.Err() as their per-item error
// (so callers can tell "never ran" from "ran and failed"); in-flight items
// finish normally. errs is nil only when every item ran and succeeded.
func MapErrCtx[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) (out []T, errs []error) {
	out = make([]T, n)
	var failed bool
	var mu sync.Mutex
	perItem := make([]error, n)
	ran := make([]bool, n)
	ForEachCtx(ctx, n, workers, func(i int) {
		ran[i] = true
		v, err := isolate(i, fn)
		out[i] = v
		if err != nil {
			perItem[i] = err
			mu.Lock()
			failed = true
			mu.Unlock()
		}
	})
	if err := ctx.Err(); err != nil {
		for i, r := range ran {
			if !r {
				perItem[i] = err
				failed = true
			}
		}
	}
	if failed {
		return out, perItem
	}
	return out, nil
}

// isolate invokes fn(i), converting a panic into a *PanicError result.
func isolate[T any](i int, fn func(i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			v, err = zero, &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// MapSeeded is the deterministic seeded runner: it draws one sub-seed per
// item from rng sequentially (in index order, before any worker starts),
// then runs fn(i, itemRng) with bounded concurrency and collects results and
// errors in index order like MapErrCtx. Because every item generates from
// its own rand.Rand and the parent rng is consumed only for the sub-seeds,
// the results are a pure function of the rng state — bit-identical
// regardless of the worker count or goroutine scheduling. This is the same
// determinism contract the dataset builder applies per exponent class.
func MapSeeded[T any](n, workers int, rng *rand.Rand, fn func(i int, rng *rand.Rand) (T, error)) ([]T, []error) {
	if n <= 0 {
		return nil, nil
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return MapErrCtx(context.Background(), n, workers, func(i int) (T, error) {
		return fn(i, rand.New(rand.NewSource(seeds[i])))
	})
}
