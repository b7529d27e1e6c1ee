package dnet

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

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
	sort.Slice(out, func(a, b int) bool {
		if out[a].Distance != out[b].Distance {
			return out[a].Distance < out[b].Distance
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// SearchKNN returns the k trajectories of the dispatched dataset nearest
// to q, ordered by ascending (distance, ID) — the network mode of the
// engine's incremental best-first kNN. The coordinator orders partitions
// by ascending global-index lower bound and prunes before it fans out:
// the first round is a pilot — the shortest prefix of that order whose
// visible members cover k, normally the one partition nearest the query —
// and once k answers exist every partition whose bound is within their
// k-th distance τ is scanned at τ in one parallel round; the search stops
// exactly when the next partition's bound exceeds τ. Workers run the same
// per-partition scan as the local engine, so results are identical to
// core.SearchKNN over the same data.
func (c *Coordinator) SearchKNN(name string, q *traj.T, k int) ([]SearchHit, error) {
	hits, _, err := c.SearchKNNPartialContext(context.Background(), name, q, k)
	return hits, err
}

// SearchKNNContext is SearchKNN under query-lifecycle control (admission,
// cancellation between rounds and replica attempts, in-band deadlines).
func (c *Coordinator) SearchKNNContext(ctx context.Context, name string, q *traj.T, k int) ([]SearchHit, error) {
	hits, _, err := c.SearchKNNPartialContext(ctx, name, q, k)
	return hits, err
}

// SearchKNNPartial is SearchKNN plus the partial-result report. Unlike a
// threshold search, a top-k result missing a partition's contribution is
// best-effort, not a subset of the true answer: with AllowPartial the
// returned hits are the exact top-k of the partitions that answered, and
// the report names the ones that did not.
func (c *Coordinator) SearchKNNPartial(name string, q *traj.T, k int) ([]SearchHit, *PartialReport, error) {
	return c.SearchKNNPartialContext(context.Background(), name, q, k)
}

// SearchKNNPartialContext is SearchKNNContext plus the partial-result
// report. Cancellation is never partial: a done context fails the query.
func (c *Coordinator) SearchKNNPartialContext(ctx context.Context, name string, q *traj.T, k int) ([]SearchHit, *PartialReport, error) {
	return c.SearchKNNTraced(ctx, name, q, k, nil)
}

// SearchKNNTraced is SearchKNNPartialContext plus per-query observability:
// qs (may be nil) receives the whole-query pruning funnel and timings,
// and — when qs.Trace is set — a coordinator-assembled trace with a
// knn-plan span, one knn-round span per visit round, and one
// partition-knn span per partition RPC (worker address, attempts
// including retries and failovers, remote compute time, partition-local
// funnel).
func (c *Coordinator) SearchKNNTraced(ctx context.Context, name string, q *traj.T, k int, qs *QueryStats) ([]SearchHit, *PartialReport, error) {
	report := &PartialReport{}
	if q == nil || len(q.Points) == 0 || k <= 0 {
		return nil, report, ctx.Err()
	}
	var tr *obs.Trace
	if qs != nil {
		tr = qs.Trace
	}
	timed := qs != nil || c.met != nil
	var qStart time.Time
	if timed {
		qStart = time.Now()
	}
	release, err := c.adm.Acquire(ctx)
	if timed {
		wait := time.Since(qStart)
		if qs != nil {
			qs.AdmissionWait = wait
		}
		if c.met != nil {
			c.met.admissionWait.Observe(wait.Microseconds())
		}
		if tr != nil {
			s := obs.Span{Name: "admit", Partition: -1, Start: qStart.Sub(tr.Begin), Duration: wait}
			if err != nil {
				s.Err, s.Class = err.Error(), obs.Classify(err)
			}
			tr.Add(s)
		}
	}
	if err != nil {
		return nil, report, err
	}
	defer release()
	dd, err := c.dataset(name)
	if err != nil {
		return nil, report, err
	}
	var merger *knnMerger
	var funnel obs.Funnel
	var totalAttempts, totalFailovers int
	// The whole plan re-runs when every skipped partition turns out
	// retired by a concurrent cutover — same staleness-vs-health
	// distinction as SearchTraced (see allSkippedRetired).
	for attempt := 0; ; attempt++ {
		report = &PartialReport{}
		// The view pins the global index for the whole query: bounds grown by
		// concurrent ingests (and the visible-count correction from acked
		// inserts and deletes) land in the next query's plan, not mid-plan.
		v := dd.boundsView()
		if v.visible <= 0 {
			return nil, report, nil
		}
		kq := k
		if kq > v.visible {
			kq = v.visible
		}
		planDone := tr.StartSpan("knn-plan", -1)
		order := core.KNNOrder(c.m, v.bounds, q.Points)
		planDone(nil)

		merger = newKNNMerger(kq)
		funnel = obs.Funnel{Partitions: int64(len(v.bounds))}
		next := 0
		for next < len(order) {
			if err := ctx.Err(); err != nil {
				return nil, report, err
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
			roundDone := tr.StartSpan("knn-round", -1)
			replies := make([]KNNReply, len(batch))
			skipped := make([]*SkippedPartition, len(batch))
			attempts := make([]int, len(batch))
			tried := make([]int, len(batch))
			var wg sync.WaitGroup
			for i, bv := range batch {
				wg.Add(1)
				go func(i, pid int) {
					defer wg.Done()
					pStart := time.Now()
					args := &KNNArgs{Dataset: name, Partition: pid, Query: q.Points, K: kq, Tau: tau}
					if tr != nil {
						args.TraceID, args.SpanID = tr.ID, obs.NewTraceID()
					}
					var lastErr error
					for _, w := range c.replicaOrder(dd, pid) {
						if err := ctx.Err(); err != nil {
							lastErr = err
							break
						}
						args.TimeoutMillis = remainingMillis(ctx)
						replies[i] = KNNReply{}
						tried[i]++
						n, err := c.clients[w].CallContextN(ctx, "Worker.KNN", args, &replies[i])
						attempts[i] += n
						if err != nil {
							lastErr = err
							if ctx.Err() != nil {
								break
							}
							if retryableError(err) {
								c.health.failure(w, false)
							} else {
								// Application errors are proof of life.
								c.health.success(w)
							}
							continue
						}
						c.health.success(w)
						// Same read-cost signal as threshold search: the kNN
						// rounds are partition probes too.
						dd.cost.Observe(pid, replies[i].Funnel.Verified, time.Since(pStart))
						if tr != nil {
							f := replies[i].Funnel
							tr.Add(obs.Span{Name: "partition-knn", Worker: c.addrs[w],
								Partition: pid, Attempts: attempts[i],
								Start: pStart.Sub(tr.Begin), Duration: time.Since(pStart),
								Remote: time.Duration(replies[i].ElapsedMicros) * time.Microsecond,
								Funnel: &f})
						}
						return
					}
					if lastErr == nil {
						lastErr = fmt.Errorf("dnet: no replicas for partition %s/%d", name, pid)
					}
					elapsed := time.Since(pStart)
					skipped[i] = &SkippedPartition{Dataset: name, Partition: pid, Err: lastErr.Error(),
						Attempts: attempts[i], Elapsed: elapsed, Class: obs.Classify(lastErr)}
					if tr != nil {
						tr.Add(obs.Span{Name: "partition-knn", Partition: pid,
							Attempts: attempts[i], Start: pStart.Sub(tr.Begin), Duration: elapsed,
							Err: lastErr.Error(), Class: obs.Classify(lastErr)})
					}
				}(i, bv.PID)
			}
			wg.Wait()
			if err := ctx.Err(); err != nil {
				roundDone(err)
				return nil, report, err
			}
			for i := range batch {
				c.met.recordRetries(attempts[i], tried[i])
				totalAttempts += attempts[i]
				if tried[i] > 1 {
					totalFailovers += tried[i] - 1
				}
				if skipped[i] != nil {
					report.Skipped = append(report.Skipped, *skipped[i])
					c.met.recordSkip(skipped[i].Class)
					continue
				}
				funnel.Relevant++
				funnel.Merge(replies[i].Funnel)
				for _, h := range replies[i].Hits {
					merger.offer(h)
				}
			}
			roundDone(nil)
		}
		if report.Partial() && attempt < cutoverReplans && c.allSkippedRetired(dd, report) {
			continue
		}
		break
	}
	out := merger.results()
	if timed {
		elapsed := time.Since(qStart)
		if qs != nil {
			qs.Funnel = funnel
			qs.Elapsed = elapsed
			qs.Attempts = totalAttempts
			qs.Failovers = totalFailovers
		}
		if c.met != nil {
			c.met.knns.Inc()
			c.met.knnLatency.Observe(elapsed.Microseconds())
			c.met.knnFunnel.Record(funnel)
		}
	}
	if report.Partial() && !c.cfg.AllowPartial {
		return nil, report, report.err(fmt.Sprintf("knn %q", name))
	}
	return out, report, nil
}
