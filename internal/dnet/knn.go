package dnet

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"

	"dita/internal/core"
	"dita/internal/obs"
	"dita/internal/traj"
)

// knnMerger is the coordinator's global top-k state: a k-bounded max-heap
// of worker hits ordered by (distance, ID), mirroring core.KNNAcc. Worker
// partitions are disjoint, so every ID arrives at most once per query and
// no resolved-set is needed.
type knnMerger struct {
	k    int
	heap []SearchHit
}

func worseHit(a, b SearchHit) bool {
	if a.Distance != b.Distance {
		return a.Distance > b.Distance
	}
	return a.ID > b.ID
}

func newKNNMerger(k int) *knnMerger { return &knnMerger{k: k, heap: make([]SearchHit, 0, k)} }

func (g *knnMerger) full() bool { return len(g.heap) >= g.k }

// tau is the live global threshold: the k-th best distance once full,
// +Inf before.
func (g *knnMerger) tau() float64 {
	if !g.full() {
		return math.Inf(1)
	}
	return g.heap[0].Distance
}

func (g *knnMerger) offer(h SearchHit) {
	if len(g.heap) < g.k {
		g.heap = append(g.heap, h)
		i := len(g.heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !worseHit(g.heap[i], g.heap[p]) {
				return
			}
			g.heap[i], g.heap[p] = g.heap[p], g.heap[i]
			i = p
		}
		return
	}
	if !worseHit(g.heap[0], h) {
		return
	}
	g.heap[0] = h
	i, n := 0, len(g.heap)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && worseHit(g.heap[l], g.heap[big]) {
			big = l
		}
		if r < n && worseHit(g.heap[r], g.heap[big]) {
			big = r
		}
		if big == i {
			return
		}
		g.heap[i], g.heap[big] = g.heap[big], g.heap[i]
		i = big
	}
}

// results returns the merged top-k in ascending (distance, ID) order.
func (g *knnMerger) results() []SearchHit {
	out := append([]SearchHit(nil), g.heap...)
	slices.SortFunc(out, func(a, b SearchHit) int {
		return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.ID, b.ID))
	})
	return out
}

// SearchKNN is SearchKNNTraced without a context, a report or stats.
func (c *Coordinator) SearchKNN(name string, q *traj.T, k int) ([]SearchHit, error) {
	return noReport(c.SearchKNNTraced(context.Background(), name, q, k, nil))
}

// SearchKNNTraced returns the k trajectories of the dispatched dataset
// nearest to q, ordered by ascending (distance, ID) — the network mode of
// the engine's incremental best-first kNN. The coordinator orders
// partitions by ascending global-index lower bound and prunes before it
// fans out: the first round is a pilot — the shortest prefix of that order
// whose visible members cover k, normally the one partition nearest the
// query — and once k answers exist every partition whose bound is within
// their k-th distance τ is scanned at τ in one parallel round; the search
// stops exactly when the next partition's bound exceeds τ. Workers run the
// same per-partition scan as the local engine, so results are identical to
// core.SearchKNN over the same data.
//
// The lifecycle is SearchTraced's, with the context also checked between
// rounds. A top-k missing a partition is best-effort, not a subset of the
// answer: under AllowPartial the hits are the exact top-k of the partitions
// that answered. The trace has a knn-plan span, one knn-round span per
// round and one partition-knn span per partition RPC.
func (c *Coordinator) SearchKNNTraced(ctx context.Context, name string, q *traj.T, k int, qs *QueryStats) ([]SearchHit, *PartialReport, error) {
	if q == nil || len(q.Points) == 0 || k <= 0 {
		return nil, &PartialReport{}, ctx.Err()
	}
	var merger *knnMerger
	rep, err := c.query(ctx, opKNN, qs, name, "", func(run *queryRun, dd, _ *dispatchedDataset) (bool, error) {
		// The view pins the global index for the whole pass: bounds grown by
		// concurrent ingests (and the visible-count correction from acked
		// inserts and deletes) land in the next query's plan, not mid-plan.
		v := dd.boundsView()
		kq := min(k, v.visible)
		merger = newKNNMerger(kq)
		run.funnel = obs.Funnel{Partitions: int64(len(v.bounds))}
		if kq <= 0 {
			return false, nil
		}
		planDone := run.tr.StartSpan("knn-plan", -1)
		order := core.KNNOrder(c.m, v.bounds, q.Points)
		planDone(nil)

		next := 0
		for next < len(order) {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			// Round-start τ: the exact k-th distance over the partitions
			// answered so far, hence an upper bound on the final one (τ only
			// shrinks), so pruning against it inside the round stays sound
			// even as other partitions in the batch tighten it further.
			tau := merger.tau()
			var batch []core.KNNVisit
			if !merger.full() {
				// Pilot: scanning at τ=+∞ costs a partition its own top-k, so
				// send only as many partitions, nearest first, as it takes
				// to cover the answers still missing. A pilot partition that
				// could not be reached leaves the merger short, and the next
				// round pilots the next partition in its place.
				for need := kq - len(merger.heap); next < len(order) && need > 0; next++ {
					batch = append(batch, order[next])
					need -= v.live[order[next].PID]
				}
			} else {
				// Fan-out: everything the pilot's τ cannot rule out, at once.
				// Termination bound: at lb == τ a partition may still improve
				// the result through an ID tie, so only a strictly greater
				// bound ends the search — and the order is ascending, so it
				// ends it for every later partition too.
				for next < len(order) && order[next].LB <= tau {
					batch = append(batch, order[next])
					next++
				}
			}
			if len(batch) == 0 {
				break
			}
			roundDone := run.tr.StartSpan("knn-round", -1)
			calls := make([]knnCall, len(batch))
			var wg sync.WaitGroup
			wg.Add(len(calls))
			for i, bv := range batch {
				calls[i].pid = bv.PID
				calls[i].args = KNNArgs{Dataset: name, Partition: bv.PID, Query: q.Points, K: kq, Tau: tau}
				calls[i].args.TraceID, calls[i].args.SpanID = run.traceIDs()
				go run.probe(&wg, dd, &calls[i])
			}
			wg.Wait()
			if err := ctx.Err(); err != nil {
				roundDone(err)
				return false, err
			}
			for i := range calls {
				if sk := run.account(&calls[i].probeState); sk != nil {
					run.skip(*sk)
					continue
				}
				run.funnel.Relevant++
				run.funnel.Merge(calls[i].reply.Funnel)
				for _, h := range calls[i].reply.Hits {
					merger.offer(h)
				}
			}
			roundDone(nil)
		}
		return run.allSkippedRetired(dd), nil
	})
	if err != nil {
		return nil, rep, err
	}
	return merger.results(), rep, nil
}
