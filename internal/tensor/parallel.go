package tensor

import "runtime"

// minParallelWork is the smallest number of scalar inner operations worth
// splitting across workers; below it scheduling overhead dominates.
const minParallelWork = 2048

// parallelWorthIt reports whether n iterations of `work` inner operations
// each clear the minParallelWork bar. Phrased as a division so the check
// cannot overflow at any magnitude: on large layers n·work exceeds int
// ranges (e.g. a 512-filter conv hands ParallelFor work ≈ OutC·ckk·p ≈ 2^31
// per sample), and the old product form wrapped negative and silently forced
// the serial path.
func parallelWorthIt(n, work int) bool {
	if work < 1 {
		work = 1
	}
	need := (int64(minParallelWork) + int64(work) - 1) / int64(work)
	return int64(n) >= need
}

// ParallelFor splits [0, n) into contiguous chunks and runs fn(lo, hi) on
// each, using up to GOMAXPROCS workers from the persistent pool. work is an
// estimate of the inner cost per index used to decide whether parallelism
// pays off; callers that do substantial work per index (e.g. a full GEMM
// row) should pass that inner loop length. Chunk boundaries depend only on n
// and GOMAXPROCS, never on scheduling.
func ParallelFor(n, work int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	procs := runtime.GOMAXPROCS(0)
	if procs > n {
		procs = n
	}
	if procs <= 1 || !parallelWorthIt(n, work) {
		fn(0, n)
		return
	}
	chunk := (n + procs - 1) / procs
	tasks := (n + chunk - 1) / chunk
	run(tasks, func(t int) {
		lo := t * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// ParallelForStriped splits [0, n) into exactly `strips` contiguous chunks
// and runs fn(strip, lo, hi) on each concurrently, passing the strip index so
// scatter-style kernels can give every strip a private accumulator (or a
// disjoint destination band) and merge in fixed strip order. Unlike
// ParallelFor, the partition is controlled by the caller, not GOMAXPROCS:
// results that depend on the chunking (float summation grouping, band
// boundaries) are therefore reproducible on any machine for a given strip
// count. Strips beyond n collapse (every index runs exactly once; empty
// strips are not invoked).
func ParallelForStriped(n, strips int, fn func(strip, lo, hi int)) {
	if n <= 0 || strips < 1 {
		return
	}
	if strips > n {
		strips = n
	}
	if strips == 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + strips - 1) / strips
	tasks := (n + chunk - 1) / chunk
	run(tasks, func(t int) {
		lo := t * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(t, lo, hi)
	})
}
