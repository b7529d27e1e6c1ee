package core

import (
	"cmp"
	"context"
	"slices"
	"time"

	"dita/internal/cluster"
	"dita/internal/geom"
	"dita/internal/obs"
	"dita/internal/traj"
)

// SearchResult is one answer of a similarity search.
type SearchResult struct {
	Traj     *traj.T
	Distance float64
}

// SearchStats reports the per-query filter/verification funnel.
type SearchStats struct {
	// RelevantPartitions survived global pruning.
	RelevantPartitions int
	// Candidates survived the local trie filter across all partitions.
	Candidates int
	// Verified counts exact distance computations (post cheap filters).
	Verified int
	// Results is the answer count.
	Results int
	// Funnel is the full pruning funnel, one stage per filter of the
	// cascade (global index → trie → length → coverage → exact).
	Funnel obs.Funnel
	// Trace, when non-nil, receives per-stage spans (global-prune, per-
	// partition trie descent and verification, merge). Setting it enables
	// per-partition timing; leave nil on hot paths that only need counts.
	Trace *obs.Trace
}

// Search is SearchPartialContext without a context, where a skipped
// partition panics (legacy crash semantics).
func (e *Engine) Search(q *traj.T, tau float64, stats *SearchStats) []SearchResult {
	return partial(e.SearchPartialContext(context.Background(), q, tau, stats)).must(opSearch)
}

// SearchPartialContext runs the distributed trajectory similarity search of
// Algorithm 2: global pruning on the driver, a stage of local filter+verify
// tasks on the workers owning the relevant partitions, then result
// collection at the driver, ascending id. stats may be nil; with
// stats.Trace set it receives global-prune, per-partition trie-descend and
// verify, and merge spans. The context is checked during global pruning,
// trie descent and between verification steps, so a cancelled or expired
// context aborts the query within one verification step and returns
// ctx.Err() — cancellation is never partial. A partition whose task panics
// is recorded in the returned SkipReport and the hits from the surviving
// partitions are still returned — the in-process analogue of the network
// mode's AllowPartial; a strict caller turns the report into an error with
// SkipReport.Err.
func (e *Engine) SearchPartialContext(ctx context.Context, q *traj.T, tau float64, stats *SearchStats) ([]SearchResult, *SkipReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if q == nil || len(q.Points) == 0 {
		return nil, &SkipReport{}, nil
	}
	// Queries hold the read side of the mutation lock for their whole
	// run: overlay state, partition MBRs and the global R-trees are
	// stable per query, and merges wait for in-flight queries.
	e.mu.RLock()
	defer e.mu.RUnlock()
	run := e.begin(opSearch, stats.trace())
	rel := e.relevantPartitions(q.Points, tau)
	run.funnel = obs.Funnel{Partitions: int64(len(e.parts)), Relevant: int64(len(rel))}
	if run.tr != nil {
		run.tr.Add(obs.Span{Name: "global-prune", Partition: -1,
			Start: run.start.Sub(run.tr.Begin), Duration: time.Since(run.start),
			Funnel: &obs.Funnel{Partitions: run.funnel.Partitions, Relevant: run.funnel.Relevant}})
	}
	var out []SearchResult
	defer func() {
		stats.fill(run.funnel, len(out))
		run.finish()
	}()
	if len(rel) == 0 {
		return nil, &run.report, nil
	}
	parts := make([]partitionSearch, len(rel))
	tasks := make([]cluster.Task, len(rel))
	const driver = 0
	for i, pid := range rel {
		ps := &parts[i]
		ps.p = e.parts[pid]
		// The driver ships the query to the partition's worker.
		e.cl.Transfer(driver, ps.p.Worker, q.Bytes())
		tasks[i] = cluster.Task{Worker: ps.p.Worker, Fn: func() {
			var t0 time.Time
			if run.timed {
				t0 = time.Now()
			}
			ps.hits, ps.funnel, ps.err = e.searchPartition(ctx, ps.p, q.Points, tau, run.tr, t0)
			if run.timed {
				ps.elapsed = time.Since(t0)
			}
		}}
	}
	if err := e.cl.RunContext(ctx, tasks); err != nil {
		return nil, nil, err
	}
	mergeDone := run.tr.StartSpan("merge", -1)
	for i := range parts {
		ps := &parts[i]
		if ps.err != nil {
			if err := ctx.Err(); err != nil {
				mergeDone(err)
				return nil, nil, err
			}
			run.skip(ps.p.ID, ps.err, ps.elapsed)
			continue
		}
		run.funnel.Merge(ps.funnel)
		if run.timed {
			e.cost.Observe(ps.p.ID, ps.funnel.Verified, ps.elapsed)
		}
		out = append(out, ps.hits...)
		if len(ps.hits) > 0 {
			// Results ship back to the driver.
			bytes := 0
			for _, sr := range ps.hits {
				bytes += sr.Traj.Bytes()
			}
			e.cl.Transfer(ps.p.Worker, driver, bytes)
		}
	}
	slices.SortFunc(out, func(a, b SearchResult) int { return cmp.Compare(a.Traj.ID, b.Traj.ID) })
	mergeDone(nil)
	return out, &run.report, nil
}

// partitionSearch is one partition's task in a search: its hits, funnel,
// error and run time.
type partitionSearch struct {
	p       *Partition
	hits    []SearchResult
	funnel  obs.Funnel
	elapsed time.Duration
	err     error
}

// searchPartition runs one partition's local search (View.Search) over the
// view of it this query holds the read lock for, under the panic guard.
// When tr is non-nil the two phases, begun at t0, land on it as a
// trie-descend and a verify span, each carrying its funnel stages; a failed
// search leaves its error on the first and no verify span.
func (e *Engine) searchPartition(ctx context.Context, p *Partition, q []geom.Point, tau float64, tr *obs.Trace, t0 time.Time) (_ []SearchResult, _ obs.Funnel, err error) {
	defer recoverTo(&err)
	out, st, err := p.View().Search(ctx, e.opts.Measure, q, tau, e.opts.VerifyParallelism, tr != nil)
	if tr != nil {
		f := st.Funnel
		span := obs.Span{Name: "trie-descend", Partition: p.ID,
			Start: t0.Sub(tr.Begin), Duration: st.Probe,
			Funnel: &obs.Funnel{Considered: f.Considered, TrieCands: f.TrieCands}}
		if err != nil {
			span.Err, span.Class = err.Error(), obs.Classify(err)
		}
		tr.Add(span)
		if err == nil && f.TrieCands > 0 {
			f.Considered, f.TrieCands = 0, 0 // already on the trie span
			tr.Add(obs.Span{Name: "verify", Partition: p.ID,
				Start: t0.Add(st.Probe).Sub(tr.Begin), Duration: st.Verify, Funnel: &f})
		}
	}
	return out, st.Funnel, err
}
