// Package engine is the worker pool behind the one loop the library runs
// in parallel: certain.EachShard, the world loop of the exact oracles and
// of µᵏ (internal/prob). Each valuation is evaluated independently of every
// other, so the loop splits the valuation index space into shards (Split),
// and Map fans them out over a fixed number of goroutines, with context
// cancellation, and returns the per-shard results in shard order: any
// order-sensitive reduction the caller performs is byte-identical to the
// serial computation. An existential search is Map with a sentinel error:
// the first shard to return it cancels all remaining work.
//
// Workers=1 always degenerates to a plain loop on the calling goroutine,
// which is the reference semantics every parallel caller is tested against.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options configures the pool. The zero value means "use every core".
type Options struct {
	// Workers is the maximum number of concurrent goroutines. Zero (or
	// negative) means runtime.NumCPU(); 1 forces serial execution on the
	// calling goroutine.
	Workers int
}

// WorkerCount resolves the effective worker count.
func (o Options) WorkerCount() int {
	if o.Workers <= 0 {
		return runtime.NumCPU()
	}
	return o.Workers
}

// Split partitions the index space [0, n) into at most parts contiguous
// half-open ranges of near-equal size, in ascending order. Empty ranges are
// omitted, so the result has min(n, parts) entries (none when n <= 0).
// Oversharding — asking for more parts than workers — is the intended way
// to load-balance shards of uneven cost.
func Split(n, parts int) [][2]int {
	if n <= 0 || parts <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	lo := 0
	for i := 0; i < parts; i++ {
		// Distribute the remainder over the leading shards.
		hi := lo + n/parts
		if i < n%parts {
			hi++
		}
		if hi > lo {
			out = append(out, [2]int{lo, hi})
		}
		lo = hi
	}
	return out
}

// MinParallel is the world count below which fan-out cannot pay for
// goroutine startup: a space smaller than this runs on the calling
// goroutine.
const MinParallel = 64

// Canceled reports whether ctx has been canceled. Workers iterating large
// shards should poll it periodically (every few hundred items) so that
// Map errors propagate promptly.
func Canceled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// Map runs f on every shard index in [0, n) using at most
// opts.WorkerCount() goroutines and returns the results in shard order.
// The first error cancels the context passed to the remaining workers and
// is returned; results computed so far are discarded. f must be safe to
// call concurrently from multiple goroutines.
func Map[T any](ctx context.Context, opts Options, n int, f func(ctx context.Context, shard int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	results := make([]T, n)
	workers := opts.WorkerCount()
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := f(ctx, i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		// A shard that polls ctx stops early when it is canceled: what it
		// returned is partial, as on the parallel path below.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return results, nil
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || Canceled(wctx) {
					return
				}
				r, err := f(wctx, i)
				if err != nil {
					errOnce.Do(func() { firstErr = err; cancel() })
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
