package tensor

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for the persistent worker pool and the deterministic chunking
// contracts of ParallelFor/ParallelForStriped — including the n·work
// overflow regression and nested submission (which must never deadlock).

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 4097} {
		var mu sync.Mutex
		seen := make([]int, n)
		ParallelFor(n, 1<<20, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestParallelForHugeWorkDoesNotOverflow(t *testing.T) {
	// Regression: n·work used to be computed in int and a wrapped negative
	// product forced the serial path (and, with a different wrap, could have
	// mis-sized chunks). A VGG-16-shaped conv hands work ≈ OutC·ckk·p ≈ 2^31
	// with batch n — the product must survive in 64-bit.
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	runtime.GOMAXPROCS(4)
	var calls atomic.Int64
	var covered atomic.Int64
	ParallelFor(8, math.MaxInt/2, func(lo, hi int) {
		calls.Add(1)
		covered.Add(int64(hi - lo))
	})
	if covered.Load() != 8 {
		t.Fatalf("covered %d indices, want 8", covered.Load())
	}
	if calls.Load() < 2 {
		t.Fatalf("huge per-index work was declared not worth parallelizing (%d chunks)", calls.Load())
	}
}

// TestMinParallelWorkTunable pins both sides of the minParallelWork gate:
// n·work just below the threshold stays on one chunk, and n·work at the
// threshold splits.
func TestMinParallelWorkTunable(t *testing.T) {
	oldProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(oldProcs)
	runtime.GOMAXPROCS(4)

	const n = 64
	var calls atomic.Int64
	ParallelFor(n, minParallelWork/n-1, func(lo, hi int) { calls.Add(1) })
	if calls.Load() != 1 {
		t.Fatalf("n·work below the threshold split into %d chunks", calls.Load())
	}

	calls.Store(0)
	ParallelFor(n, minParallelWork/n, func(lo, hi int) { calls.Add(1) })
	if calls.Load() < 2 {
		t.Fatalf("n·work at the threshold did not split: %d chunks", calls.Load())
	}
}

func TestParallelForStripedPartition(t *testing.T) {
	for _, tc := range []struct{ n, strips int }{
		{10, 4}, {4, 10}, {1, 1}, {100, 8}, {9, 6},
	} {
		var mu sync.Mutex
		seen := make([]int, tc.n)
		maxStrip := -1
		ParallelForStriped(tc.n, tc.strips, func(strip, lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			if strip > maxStrip {
				maxStrip = strip
			}
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d strips=%d: index %d visited %d times", tc.n, tc.strips, i, c)
			}
		}
		if maxStrip >= tc.strips {
			t.Fatalf("n=%d strips=%d: strip index %d out of range", tc.n, tc.strips, maxStrip)
		}
	}
}

func TestParallelForStripedDeterministicPartition(t *testing.T) {
	// The chunk a given index lands in must depend only on (n, strips) —
	// never on GOMAXPROCS — because striped callers key accumulator grouping
	// (and therefore float summation order) on the strip index.
	record := func(n, strips int) []int {
		owner := make([]int, n)
		var mu sync.Mutex
		ParallelForStriped(n, strips, func(strip, lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			for i := lo; i < hi; i++ {
				owner[i] = strip
			}
		})
		return owner
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	runtime.GOMAXPROCS(1)
	a := record(101, 7)
	runtime.GOMAXPROCS(8)
	b := record(101, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("index %d owned by strip %d at GOMAXPROCS=1 but %d at 8", i, a[i], b[i])
		}
	}
}

func TestNestedParallelForDoesNotDeadlock(t *testing.T) {
	// Batch workers invoking parallel kernels nest pool submissions; the
	// pool must spawn rather than wait when no worker is parked.
	var total atomic.Int64
	ParallelForStriped(8, 8, func(strip, lo, hi int) {
		ParallelForStriped(8, 8, func(s2, l2, h2 int) {
			total.Add(int64(h2 - l2))
		})
	})
	if total.Load() != 64 {
		t.Fatalf("nested coverage %d, want 64", total.Load())
	}
}

func TestWorkerPoolReusesGoroutines(t *testing.T) {
	// Warm the pool, then check that a burst of calls does not keep growing
	// the goroutine count without bound: parked workers are reused.
	for i := 0; i < 32; i++ {
		ParallelForStriped(4, 4, func(int, int, int) {})
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 1024; i++ {
		ParallelForStriped(4, 4, func(int, int, int) {})
	}
	after := runtime.NumGoroutine()
	if after > before+maxIdleWorkers {
		t.Fatalf("goroutines grew %d → %d across reused-pool calls", before, after)
	}
}
