package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"dita/internal/traj"
)

// ResolveParallelism maps the VerifyParallelism knob to a worker count:
// zero or negative means "use every core" (runtime.GOMAXPROCS).
func ResolveParallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// minParallelCands is the candidate-list size below which VerifyAll stays
// sequential: spawning goroutines for a handful of threshold-distance
// calls costs more than the calls themselves.
const minParallelCands = 8

// parallelFor runs body(0..n-1) on up to par goroutines, claiming indices
// from a shared atomic counter. The context is checked before each item,
// matching the sequential loops' one-verification-step abort granularity.
// A panic in any body is captured, the remaining items are abandoned, and
// the first panic value is re-raised verbatim on the calling goroutine —
// so callers' existing recover() handlers see exactly what a sequential
// loop would have shown them.
func parallelFor(ctx context.Context, n, par int, body func(i int)) error {
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			body(i)
		}
		return nil
	}
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup

		mu       sync.Mutex
		firstErr error
		panicked bool
		panicVal any
	)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if !panicked {
						panicked, panicVal = true, r
					}
					mu.Unlock()
					stop.Store(true)
				}
			}()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
	return firstErr
}

// VerifyHit is one accepted candidate from VerifyAll: Index is the
// candidate's position in the trajs/meta slices and Distance the exact
// distance the cascade computed.
type VerifyHit struct {
	Index    int
	Distance float64
}

// VerifyAll runs the verification cascade over a candidate list, fanning
// out across up to parallelism goroutines (0 = GOMAXPROCS). Results are
// written into per-candidate slots and compacted in cands order, so the
// returned hits are byte-identical to a sequential loop's regardless of
// scheduling; the Verifier's atomic stage counters make the funnel equally
// order-independent. Short lists run sequentially. On context cancellation
// or a re-raised worker panic no hits are returned.
func (v *Verifier) VerifyAll(ctx context.Context, trajs []*traj.T, meta []VerifyMeta, cands []int, parallelism int) ([]VerifyHit, error) {
	par := ResolveParallelism(parallelism)
	if par <= 1 || len(cands) < minParallelCands {
		var out []VerifyHit
		for _, i := range cands {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if d, ok := v.Verify(trajs[i], meta[i]); ok {
				out = append(out, VerifyHit{Index: i, Distance: d})
			}
		}
		return out, nil
	}
	dists := make([]float64, len(cands))
	ok := make([]bool, len(cands))
	err := parallelFor(ctx, len(cands), par, func(k int) {
		i := cands[k]
		if d, hit := v.Verify(trajs[i], meta[i]); hit {
			dists[k], ok[k] = d, true
		}
	})
	if err != nil {
		return nil, err
	}
	var out []VerifyHit
	for k, hit := range ok {
		if hit {
			out = append(out, VerifyHit{Index: cands[k], Distance: dists[k]})
		}
	}
	return out, nil
}

// JoinPair is one (shipped trajectory, local candidate) verification unit
// of a join edge: Shipped indexes the edge's shipped list (and its parallel
// verifier list), Local is a slot of the destination view.
type JoinPair struct {
	Shipped, Local int
}

// JoinHit is one accepted join pair with its exact distance.
type JoinHit struct {
	Pair     JoinPair
	Distance float64
}

// VerifyJoinPairs verifies a join edge's flattened candidate pairs with
// the same slot-compaction discipline as VerifyAll: hits are appended to
// dst in pairs order whatever the goroutine schedule, and each shipped
// trajectory's verifier accumulates its stage counters atomically.
func VerifyJoinPairs(ctx context.Context, pairs []JoinPair, vs []Verifier, local *View, parallelism int, dst []JoinHit) ([]JoinHit, error) {
	par := ResolveParallelism(parallelism)
	if par <= 1 || len(pairs) < minParallelCands {
		for _, pr := range pairs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if d, ok := vs[pr.Shipped].Verify(local.At(pr.Local)); ok {
				dst = append(dst, JoinHit{Pair: pr, Distance: d})
			}
		}
		return dst, nil
	}
	dists := make([]float64, len(pairs))
	ok := make([]bool, len(pairs))
	err := parallelFor(ctx, len(pairs), par, func(k int) {
		pr := pairs[k]
		if d, hit := vs[pr.Shipped].Verify(local.At(pr.Local)); hit {
			dists[k], ok[k] = d, true
		}
	})
	if err != nil {
		return nil, err
	}
	for k, hit := range ok {
		if hit {
			dst = append(dst, JoinHit{Pair: pairs[k], Distance: dists[k]})
		}
	}
	return dst, nil
}
