// Package par provides the minimal fan-out helpers used by the
// scheduler's O(n²) hot loops. The partitions are fixed functions of
// (n, workers) — no channels, no work stealing, no locks — so every
// index is processed exactly once by exactly one goroutine and results
// written into preallocated, disjoint slice ranges are bit-identical to
// the serial path regardless of the worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: positive requests are
// capped at runtime.GOMAXPROCS(0) — CPU-bound fan-out gains nothing
// from goroutines beyond the Ps available, and oversubscription
// slows the scheduler's hot loops (an 8-worker round on a smaller host
// ran slower than the serial one) — and anything else
// (the zero value of a knob) selects GOMAXPROCS outright. Results
// never depend on the effective count (see the package comment), so
// the clamp cannot change a plan.
func Workers(requested int) int {
	procs := runtime.GOMAXPROCS(0)
	if requested > 0 && requested < procs {
		return requested
	}
	return procs
}

// chunksPerWorker oversplits Chunks' range so workers that draw cheap
// blocks pick up more instead of idling at the barrier: blocks are
// claimed dynamically off an atomic cursor. A small factor keeps the
// per-block claim overhead negligible while evening out systematic
// cost skew across the range.
const chunksPerWorker = 4

// Chunks partitions [0, n) into contiguous blocks (about
// chunksPerWorker per worker) and invokes fn(lo, hi) for each,
// concurrently when workers > 1. Blocks are claimed dynamically, but
// the block boundaries are a fixed function of (n, workers) and every
// index appears in exactly one block, so results written into
// preallocated disjoint ranges stay bit-identical to the serial path.
// fn must only write state disjoint across ranges (e.g. out[lo:hi]).
func Chunks(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	blocks := workers * chunksPerWorker
	if blocks > n {
		blocks = n
	}
	chunk := (n + blocks - 1) / blocks
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// Strided assigns index i to goroutine i%workers and invokes fn(i) for
// every i in [0, n), concurrently when workers > 1. Use it when the
// per-index cost varies systematically with i (e.g. triangular matrix
// rows), where contiguous chunks would load-balance badly.
func Strided(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}
