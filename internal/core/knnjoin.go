package core

import (
	"context"
	"fmt"

	"dita/internal/cluster"
	"dita/internal/obs"
	"dita/internal/traj"
)

// KNNJoin computes the k-nearest-neighbor join: for every trajectory T in
// the receiver's dataset, the k trajectories of other's dataset nearest
// to T under the engines' (shared) measure. This is the paper's stated
// future work ("we plan to support KNN-based search and join in DITA"),
// built on the incremental best-first kNN engine: each probe orders the
// right engine's partitions by lower bound and stops when the bound
// exceeds its live k-th distance. The result maps each left trajectory ID
// to its neighbors in ascending (distance, ID) order.
func (e *Engine) KNNJoin(other *Engine, k int) (map[int][]SearchResult, error) {
	return e.KNNJoinContext(context.Background(), other, k, nil)
}

// KNNJoinContext is KNNJoin with query-lifecycle control (the context is
// checked between per-trajectory probes and inside each probe's scan) and
// observability (stats, when non-nil, accumulates every probe's pruning
// funnel). Both engines must share a cluster — the join schedules left
// partitions' probes on their owning workers, which is meaningless across
// clusters — and a measure.
//
// Probes within one left partition run sequentially and warm-start from
// their predecessor: trajectories of one STR partition start and end near
// each other, so the previous trajectory's k answers are verified first
// and usually pin τ near its final value before any right partition is
// visited.
func (e *Engine) KNNJoinContext(ctx context.Context, other *Engine, k int, stats *JoinStats) (map[int][]SearchResult, error) {
	if e.cl != other.cl {
		return nil, fmt.Errorf("core: knn join: engines do not share a cluster")
	}
	if e.opts.Measure.Name() != other.opts.Measure.Name() ||
		e.opts.Measure.Epsilon() != other.opts.Measure.Epsilon() {
		return nil, fmt.Errorf("core: knn join: measure mismatch: %s(ε=%g) vs %s(ε=%g)",
			e.opts.Measure.Name(), e.opts.Measure.Epsilon(),
			other.opts.Measure.Name(), other.opts.Measure.Epsilon())
	}
	unlock := rlockPair(e, other)
	defer unlock()
	if k <= 0 || e.visibleCount() == 0 || other.visibleCount() == 0 {
		return nil, ctx.Err()
	}
	if n := other.visibleCount(); k > n {
		k = n
	}
	out := make(map[int][]SearchResult, e.visibleCount())
	var total obs.Funnel
	results := int64(0)
	errs := make([]error, len(e.parts))
	funnels := make([]obs.Funnel, len(e.parts))
	locals := make([]map[int][]SearchResult, len(e.parts))
	// Each left partition's worker resolves its own trajectories' kNN by
	// probing the right engine's index, so the work parallelizes the same
	// way the threshold join does.
	tasks := make([]cluster.Task, 0, len(e.parts))
	for i, p := range e.parts {
		i, p := i, p
		tasks = append(tasks, cluster.Task{Worker: p.Worker, Fn: func() {
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("left partition %d: panic: %v", p.ID, r)
				}
			}()
			// The probe set is the partition's visible members (masked base
			// hidden, frozen+delta included).
			probes := p.view().Visible()
			local := make(map[int][]SearchResult, len(probes))
			var prime []*traj.T
			for _, t := range probes {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					return
				}
				f := obs.Funnel{Partitions: int64(len(other.parts))}
				res, err := other.knnBestFirst(ctx, t, k, prime, &f, nil)
				if err != nil {
					errs[i] = err
					return
				}
				funnels[i].Merge(f)
				local[t.ID] = res
				// Warm-start the next probe from this answer set.
				prime = make([]*traj.T, 0, len(res))
				for _, r := range res {
					prime = append(prime, r.Traj)
				}
			}
			locals[i] = local
		}})
	}
	if err := e.cl.RunContext(ctx, tasks); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, fmt.Errorf("core: knn join: %w", err)
		}
		total.Merge(funnels[i])
		for id, res := range locals[i] {
			out[id] = res
			results += int64(len(res))
		}
	}
	if stats != nil {
		stats.Funnel = total
		stats.Results = int(results)
	}
	return out, nil
}
