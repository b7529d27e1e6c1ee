package core

import (
	"context"
	"fmt"

	"dita/internal/cluster"
	"dita/internal/obs"
	"dita/internal/traj"
)

// KNNJoinContext computes the k-nearest-neighbor join: for every
// trajectory T in the receiver's dataset, the k trajectories of other's
// dataset nearest to T under the engines' (shared) measure. This is the
// paper's stated future work ("we plan to support KNN-based search and join
// in DITA"), built on the incremental best-first kNN engine: each probe
// orders the right engine's partitions by lower bound and stops when the
// bound exceeds its live k-th distance. The result maps each left
// trajectory ID to its neighbors in ascending (distance, ID) order. The
// context is checked between per-trajectory probes and inside each probe's
// scan; stats, when non-nil, accumulates every probe's pruning funnel. Both
// engines must share a cluster — the join schedules left partitions' probes
// on their owning workers, which is meaningless across clusters — and a
// measure. Like kNN, a failed partition fails the whole join.
//
// Probes within one left partition run sequentially and warm-start from
// their predecessor: trajectories of one STR partition start and end near
// each other, so the previous trajectory's k answers are verified first
// and usually pin τ near its final value before any right partition is
// visited.
func (e *Engine) KNNJoinContext(ctx context.Context, other *Engine, k int, stats *JoinStats) (map[int][]SearchResult, error) {
	if err := e.checkPair(opKNNJoin, other); err != nil {
		return nil, err
	}
	unlock := rlockPair(e, other)
	defer unlock()
	if k <= 0 || e.visibleCount() == 0 || other.visibleCount() == 0 {
		return nil, ctx.Err()
	}
	k = min(k, other.visibleCount())
	errs := make([]error, len(e.parts))
	funnels := make([]obs.Funnel, len(e.parts))
	locals := make([]map[int][]SearchResult, len(e.parts))
	// Each left partition's worker resolves its own trajectories' kNN by
	// probing the right engine's index, so the work parallelizes the same
	// way the threshold join does.
	tasks := make([]cluster.Task, len(e.parts))
	for i, p := range e.parts {
		tasks[i] = cluster.Task{Worker: p.Worker, Fn: func() {
			defer recoverTo(&errs[i])
			// The probe set is the partition's visible members (masked base
			// hidden, frozen+delta included).
			probes := p.View().Visible()
			locals[i] = make(map[int][]SearchResult, len(probes))
			var prime []*traj.T
			for _, t := range probes {
				f := obs.Funnel{Partitions: int64(len(other.parts))}
				res, err := other.knnBestFirst(ctx, t, k, prime, &f, nil)
				if err != nil {
					errs[i] = err
					return
				}
				funnels[i].Merge(f)
				locals[i][t.ID] = res
				// Warm-start the next probe from this answer set.
				prime = make([]*traj.T, 0, len(res))
				for _, r := range res {
					prime = append(prime, r.Traj)
				}
			}
		}}
	}
	if err := e.cl.RunContext(ctx, tasks); err != nil {
		return nil, err
	}
	out := make(map[int][]SearchResult, e.visibleCount())
	var total obs.Funnel
	results := 0
	for i, err := range errs {
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, fmt.Errorf("core: knn join: left partition %d: %w", e.parts[i].ID, err)
		}
		total.Merge(funnels[i])
		for id, res := range locals[i] {
			out[id] = res
			results += len(res)
		}
	}
	if stats != nil {
		stats.Funnel = total
		stats.Results = results
	}
	return out, nil
}
