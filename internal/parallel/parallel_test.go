package parallel

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForEachCoversAllIndices(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		n := int(seed%50) + 1
		workers := int(seed%7) - 1 // includes 0 and -1 → default worker count
		seen := make([]int32, n)
		ForEach(n, workers, func(i int) {
			atomic.AddInt32(&seen[i], 1)
		})
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestForEachZeroIsNoop(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	ForEach(-3, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForEachSingleWorkerOrdered(t *testing.T) {
	var order []int
	ForEach(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("single-worker order = %v", order)
		}
	}
}

func TestRunCoversAllIndices(t *testing.T) {
	seen := make([]int32, 37)
	// The default worker count (workers <= 0 means GOMAXPROCS).
	ForEach(len(seen), 0, func(i int) {
		atomic.AddInt32(&seen[i], 1)
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
	called := false
	ForEach(0, 0, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestMapOrdered(t *testing.T) {
	got := Map(6, 3, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map result = %v", got)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if len(Map(0, 2, func(i int) int { return i })) != 0 {
		t.Fatal("empty Map should give empty slice")
	}
}

func TestMapErrOrderedAndIndependent(t *testing.T) {
	wantErr := errors.New("item failed")
	for _, workers := range []int{1, 4} {
		out, errs := MapErrCtx(context.Background(), 10, workers, func(i int) (int, error) {
			if i == 3 || i == 7 {
				return 0, wantErr
			}
			return i * 2, nil
		})
		if errs == nil {
			t.Fatal("errors lost")
		}
		for i := 0; i < 10; i++ {
			switch i {
			case 3, 7:
				if errs[i] != wantErr {
					t.Fatalf("workers=%d: errs[%d] = %v", workers, i, errs[i])
				}
			default:
				if errs[i] != nil || out[i] != i*2 {
					t.Fatalf("workers=%d: item %d = (%d, %v)", workers, i, out[i], errs[i])
				}
			}
		}
	}
}

func TestMapErrNilErrsOnSuccess(t *testing.T) {
	out, errs := MapErrCtx(context.Background(), 5, 2, func(i int) (int, error) { return i, nil })
	if errs != nil {
		t.Fatalf("errs = %v for all-success run", errs)
	}
	if len(out) != 5 {
		t.Fatalf("out = %v", out)
	}
}

// TestMapSeededDeterministic pins the runner's determinism contract: the
// results are a pure function of the parent rng state, independent of the
// worker count.
func TestMapSeededDeterministic(t *testing.T) {
	run := func(workers int) []float64 {
		out, errs := MapSeeded(12, workers, rand.New(rand.NewSource(9)),
			func(i int, rng *rand.Rand) (float64, error) {
				// Consume a varying amount of randomness per item so any
				// cross-item rng sharing would scramble the results.
				v := 0.0
				for k := 0; k <= i%4; k++ {
					v += rng.Float64()
				}
				return v, nil
			})
		if errs != nil {
			t.Fatal(errs)
		}
		return out
	}
	base := run(1)
	for _, workers := range []int{2, 5, 8} {
		got := run(workers)
		for i, v := range got {
			if v != base[i] {
				t.Fatalf("workers=%d: item %d = %v, serial = %v", workers, i, v, base[i])
			}
		}
	}
}

func TestMapSeededEmpty(t *testing.T) {
	out, errs := MapSeeded(0, 4, rand.New(rand.NewSource(1)),
		func(i int, rng *rand.Rand) (int, error) { return 0, nil })
	if out != nil || errs != nil {
		t.Fatal("empty run should return nils")
	}
}

// TestMapErrPanicIsolation pins the failure-isolation contract: a panicking
// item becomes a *PanicError for exactly that item; every other item still
// delivers its result.
func TestMapErrPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out, errs := MapErrCtx(context.Background(), 8, workers, func(i int) (int, error) {
			if i == 2 {
				panic("kernel exploded")
			}
			if i == 5 {
				return 0, errors.New("plain failure")
			}
			return i * 3, nil
		})
		if errs == nil {
			t.Fatalf("workers=%d: panic swallowed without error", workers)
		}
		var pe *PanicError
		if !errors.As(errs[2], &pe) {
			t.Fatalf("workers=%d: errs[2] = %v, want *PanicError", workers, errs[2])
		}
		if pe.Index != 2 || pe.Value != "kernel exploded" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: PanicError = {Index:%d Value:%v stack:%d bytes}",
				workers, pe.Index, pe.Value, len(pe.Stack))
		}
		var pe5 *PanicError
		if errs[5] == nil || errors.As(errs[5], &pe5) {
			t.Fatalf("workers=%d: plain error mishandled: %v", workers, errs[5])
		}
		for _, i := range []int{0, 1, 3, 4, 6, 7} {
			if errs[i] != nil || out[i] != i*3 {
				t.Fatalf("workers=%d: healthy item %d = (%d, %v)", workers, i, out[i], errs[i])
			}
		}
	}
}

// TestForEachCtxCancelStopsDispatch checks that no new items start once the
// context is cancelled, while completed items stay completed.
func TestForEachCtxCancelStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		err := ForEachCtx(ctx, 100, workers, func(i int) {
			if started.Add(1) == 3 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// At most the in-flight items (≤ workers) may start after the cancel.
		if n := started.Load(); int(n) > 3+workers {
			t.Fatalf("workers=%d: %d items started after cancellation", workers, n)
		}
	}
}

func TestForEachCtxCompletesWithoutCancel(t *testing.T) {
	seen := make([]int32, 23)
	err := ForEachCtx(context.Background(), len(seen), 4, func(i int) {
		atomic.AddInt32(&seen[i], 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

// TestMapErrCtxMarksUnstartedItems checks that items skipped by cancellation
// carry ctx.Err() so callers can distinguish "never ran" from "failed".
func TestMapErrCtxMarksUnstartedItems(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any dispatch
	out, errs := MapErrCtx(ctx, 5, 2, func(i int) (int, error) { return i, nil })
	if len(out) != 5 || errs == nil {
		t.Fatalf("out = %v, errs = %v", out, errs)
	}
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errs[%d] = %v, want context.Canceled", i, err)
		}
	}
}

// TestMapSeededCtxConsumesAllSeeds pins the determinism contract: a seeded
// run consumes exactly one sub-seed per item from the parent rng, however
// many of its items fail or panic.
func TestMapSeededCtxConsumesAllSeeds(t *testing.T) {
	rngA := rand.New(rand.NewSource(7))
	MapSeeded(9, 3, rngA, func(i int, rng *rand.Rand) (int, error) {
		switch i % 3 {
		case 1:
			return 0, errors.New("fails")
		case 2:
			panic("crashes")
		}
		return i, nil
	})
	rngB := rand.New(rand.NewSource(7))
	for i := 0; i < 9; i++ {
		rngB.Int63()
	}
	if a, b := rngA.Int63(), rngB.Int63(); a != b {
		t.Fatalf("run with failures consumed a different amount of parent rng: %d vs %d", a, b)
	}
}

// TestJoinErrs pins the per-item error slice that callers flatten with
// errors.Join: nil when every item succeeded, and every cause visible (with
// the successes' nil entries dropped) when some failed.
func TestJoinErrs(t *testing.T) {
	_, errs := MapErrCtx(context.Background(), 4, 2, func(i int) (int, error) { return i, nil })
	if errors.Join(errs...) != nil {
		t.Fatal("an all-success run must join to nil")
	}
	e1, e3 := errors.New("first"), errors.New("third")
	_, errs = MapErrCtx(context.Background(), 4, 2, func(i int) (int, error) {
		switch i {
		case 1:
			return 0, e1
		case 3:
			return 0, e3
		}
		return i, nil
	})
	joined := errors.Join(errs...)
	if joined == nil || !errors.Is(joined, e1) || !errors.Is(joined, e3) {
		t.Fatalf("joined = %v", joined)
	}
	if got := joined.Error(); got != "first\nthird" {
		t.Fatalf("joined text = %q, want the two causes only", got)
	}
}
