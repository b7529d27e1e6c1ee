package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"dita/internal/geom"
	"dita/internal/obs"
	"dita/internal/traj"
)

// SearchKNN is SearchKNNContext without a context or stats, where a failed
// partition panics (legacy crash semantics).
func (e *Engine) SearchKNN(q *traj.T, k int) []SearchResult {
	return must(e.SearchKNNContext(context.Background(), q, k, nil))
}

// SearchKNNContext returns the k trajectories nearest to q under the
// engine's measure, ordered by ascending distance (ties broken by
// trajectory ID).
//
// kNN search is the paper's stated future work ("we plan to support
// KNN-based search and join in DITA"); the implementation is an
// incremental best-first top-k engine in the style REPOSE uses for
// distributed top-k trajectory search: partitions are visited in
// ascending global-index lower bound order, a global k-max-heap's k-th
// distance is the live threshold τ fed to the trie descent and the
// verification cascade, and the search terminates exactly when the next
// partition's lower bound exceeds τ. No candidate is ever verified twice,
// and the result is exact even when fewer than k trajectories are
// reachable (finite-distance neighbors simply run out and every partition
// is scanned once — there is no probe cap to trip).
//
// The context is checked inside the trie descent, between verification
// steps, and between partition visits. stats may be nil; the whole-query
// pruning funnel lands in stats.Funnel, per-visit spans on stats.Trace
// when set. A panic in a partition scan surfaces as an error. kNN has no
// partial-result variant — unlike a threshold search, a top-k answer
// missing one partition's contribution is not a subset of the true answer
// but potentially wrong everywhere, so any failed partition fails the
// query.
func (e *Engine) SearchKNNContext(ctx context.Context, q *traj.T, k int, stats *SearchStats) (res []SearchResult, err error) {
	if q == nil || len(q.Points) == 0 || k <= 0 {
		return nil, ctx.Err()
	}
	// Any live partition may be visited, so the capture holds them all.
	ev, _ := e.capture(e, nil)
	visible := ev.lay.Visible
	if visible == 0 {
		return nil, ctx.Err()
	}
	k = min(k, visible)
	run := e.begin(opKNN, stats.trace())
	run.funnel.Partitions = int64(len(ev.parts))
	defer func() {
		stats.fill(run.funnel, len(res))
		run.finish()
	}()
	return e.knnBestFirst(ctx, &ev, q, k, nil, &run.funnel, run.tr)
}

// knnBestFirst runs the incremental best-first top-k engine over ev, a
// capture of every live partition of e: visit partitions in ascending
// lower-bound order, each visit tightening τ through the shared
// accumulator, until the next partition's bound exceeds τ. The
// lowest-bound partition is the seed: its best-first scan fills the
// accumulator from the leaves nearest the query, so every later visit
// starts at a finite τ (the kNN join instead warm-starts from prime).
// Visits run inline on the driver — the scan is inherently sequential (τ
// mutates between candidates) — but query shipping is still charged to the
// simulated cluster. funnel accumulates the whole query's pruning stages;
// funnel.Relevant counts partitions actually visited.
func (e *Engine) knnBestFirst(ctx context.Context, ev *engineView, q *traj.T, k int, prime []*traj.T, funnel *obs.Funnel, tr *obs.Trace) ([]SearchResult, error) {
	acc := NewKNNAcc(k)
	planDone := tr.StartSpan("knn-plan", -1)
	order := KNNOrder(e.opts.Measure, ev.lay.Bounds, q.Points)
	planDone(nil)
	if len(prime) > 0 {
		if err := e.knnPrime(ctx, q, prime, acc, funnel); err != nil {
			return nil, err
		}
	}
	const driver = 0
	for _, po := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Termination bound: once k answers exist, a partition whose lower
		// bound strictly exceeds the k-th distance cannot improve the
		// result (at lb == τ it still may, through an ID tie), and the
		// order is ascending, so neither can any later one.
		if acc.Full() && po.LB > acc.Tau() {
			break
		}
		funnel.Relevant++
		p := ev.parts[po.PID]
		e.cl.Transfer(driver, p.Worker, q.Bytes())
		var vStart time.Time
		if tr != nil {
			vStart = time.Now()
		}
		f, err := e.knnVisit(ctx, &ev.views[po.PID], q.Points, acc)
		if tr != nil {
			ff := f
			span := obs.Span{Name: "knn-visit", Partition: p.ID,
				Start: vStart.Sub(tr.Begin), Duration: time.Since(vStart), Funnel: &ff}
			if err != nil {
				span.Err, span.Class = err.Error(), obs.Classify(err)
			}
			tr.Add(span)
		}
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, fmt.Errorf("core: knn: partition %d: %w", p.ID, err)
		}
		funnel.Merge(f)
	}
	return acc.Results(), nil
}

// knnVisit scans one partition's captured view (View.KNNScan) with panic
// isolation: a poisoned partition surfaces as this visit's error, not a
// process crash.
func (e *Engine) knnVisit(ctx context.Context, v *View, q []geom.Point, acc *KNNAcc) (f obs.Funnel, err error) {
	defer recoverTo(&err)
	return v.KNNScan(ctx, e.opts.Measure, q, acc, math.Inf(1))
}

// knnPrime warm-starts the accumulator from trajectories the caller
// expects to be near q (kNN join passes a partition neighbor's resolved
// answer set, all visible in the engines' captured views). The first
// k are verified with the exact kernel, the rest early-abandon against the
// live τ and, like a scan's candidates, enter the heap at their exact
// distance; τ is sound from the first partition visit on, and the resolved
// set keeps the scans from verifying the primes again. Their verification work is merged into the funnel as a
// flat stage.
func (e *Engine) knnPrime(ctx context.Context, q *traj.T, prime []*traj.T, acc *KNNAcc, funnel *obs.Funnel) error {
	acc.resolved = make(map[*traj.T]struct{}, len(prime))
	m := e.opts.Measure
	var matched int64
	for _, t := range prime {
		if err := ctx.Err(); err != nil {
			return err
		}
		tau := acc.Tau()
		if math.IsInf(tau, 1) {
			// Threshold kernels must never see τ=+Inf (the banded edit DP
			// sizes its band from τ); the heap isn't full yet, so pay for
			// the exact kernel.
			acc.Add(t, m.Distance(t.Points, q.Points))
			matched++
			continue
		}
		d, ok := m.DistanceThreshold(t.Points, q.Points, tau)
		acc.Resolve(t)
		if ok && acc.Offer(t, d) {
			matched++
		}
	}
	n := int64(len(prime))
	funnel.Merge(obs.Funnel{Considered: n, TrieCands: n,
		AfterLength: n, AfterCoverage: n, Verified: n, Matched: matched})
	return nil
}
