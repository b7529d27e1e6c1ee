package core

import (
	"context"
	"fmt"
	"sort"
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

// SkippedPartition identifies one partition a partial query could not
// complete, with the error (typically a recovered panic) that stopped it.
// Elapsed is how long the partition's task ran before failing (zero when
// the query ran untimed, i.e. no trace and no metrics registry), and
// Class is the coarse obs error class of Err.
type SkippedPartition struct {
	Partition int
	Err       string
	Elapsed   time.Duration
	Class     string
}

// SkipReport lists exactly the partitions a query skipped because their
// tasks failed (panicked). Empty means the result is complete.
type SkipReport struct {
	Skipped []SkippedPartition
}

// Partial reports whether anything was skipped.
func (r *SkipReport) Partial() bool { return r != nil && len(r.Skipped) > 0 }

func (r *SkipReport) err(op string) error {
	s := r.Skipped[0]
	return fmt.Errorf("core: %s: %d partition(s) failed (first: partition %d: %s)",
		op, len(r.Skipped), s.Partition, s.Err)
}

// Search runs the distributed trajectory similarity search of Algorithm 2:
// global pruning on the driver, a stage of local filter+verify tasks on
// the workers owning the relevant partitions, then result collection at
// the driver. stats may be nil. A panic in a partition task propagates
// (legacy crash semantics); lifecycle-aware callers use SearchContext.
func (e *Engine) Search(q *traj.T, tau float64, stats *SearchStats) []SearchResult {
	out, rep, err := e.SearchPartialContext(context.Background(), q, tau, stats)
	if err != nil {
		panic(err) // unreachable with a background context
	}
	if rep.Partial() {
		panic(rep.err("search"))
	}
	return out
}

// SearchContext is Search with query-lifecycle control: the context is
// checked during global pruning, trie descent, and between verification
// steps, so a cancelled or expired context aborts the query within one
// verification step; a panic in any partition task is isolated and
// surfaces as an error instead of crashing the process.
func (e *Engine) SearchContext(ctx context.Context, q *traj.T, tau float64, stats *SearchStats) ([]SearchResult, error) {
	out, rep, err := e.SearchPartialContext(ctx, q, tau, stats)
	if err != nil {
		return nil, err
	}
	if rep.Partial() {
		return nil, rep.err("search")
	}
	return out, nil
}

// SearchPartialContext is SearchContext plus partial-result semantics: a
// partition whose task panics is recorded in the returned SkipReport and
// the hits from the surviving partitions are still returned — the
// in-process analogue of the network mode's AllowPartial machinery.
// Cancellation is never partial: a done context returns ctx.Err().
func (e *Engine) SearchPartialContext(ctx context.Context, q *traj.T, tau float64, stats *SearchStats) ([]SearchResult, *SkipReport, error) {
	report := &SkipReport{}
	if q == nil || len(q.Points) == 0 {
		return nil, report, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return nil, report, err
	}
	// Queries hold the read side of the mutation lock for their whole
	// run: overlay state, partition MBRs and the global R-trees are
	// stable per query, and merges wait for in-flight queries.
	e.mu.RLock()
	defer e.mu.RUnlock()
	// timed gates every clock read on this path: queries run clock-free
	// unless a trace is attached or the engine has a metrics registry.
	var tr *obs.Trace
	if stats != nil {
		tr = stats.Trace
	}
	timed := tr != nil || e.met != nil
	var qStart time.Time
	if timed {
		qStart = time.Now()
	}
	var gStart time.Time
	if tr != nil {
		gStart = time.Now()
	}
	rel := e.relevantPartitions(q.Points, tau)
	funnel := obs.Funnel{Partitions: int64(len(e.parts)), Relevant: int64(len(rel))}
	if tr != nil {
		tr.Add(obs.Span{Name: "global-prune", Partition: -1,
			Start: gStart.Sub(tr.Begin), Duration: time.Since(gStart),
			Funnel: &obs.Funnel{Partitions: funnel.Partitions, Relevant: funnel.Relevant}})
	}
	if stats != nil {
		stats.RelevantPartitions = len(rel)
	}
	defer func() {
		if stats != nil {
			stats.Funnel = funnel
			stats.Candidates = int(funnel.TrieCands)
			stats.Verified = int(funnel.Verified)
			stats.Results = int(funnel.Matched)
		}
		if e.met != nil {
			e.met.searches.Inc()
			e.met.searchLatency.Observe(time.Since(qStart).Microseconds())
			e.met.searchFunnel.Record(funnel)
		}
	}()
	if len(rel) == 0 {
		return nil, report, nil
	}
	results := make([][]SearchResult, len(rel))
	funnels := make([]obs.Funnel, len(rel))
	elapsed := make([]time.Duration, len(rel))
	errs := make([]error, len(rel))
	tasks := make([]cluster.Task, 0, len(rel))
	const driver = 0
	for i, pid := range rel {
		i, p := i, e.parts[pid]
		// The driver ships the query to the partition's worker.
		e.cl.Transfer(driver, p.Worker, q.Bytes())
		tasks = append(tasks, cluster.Task{Worker: p.Worker, Fn: func() {
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			// Panic isolation: a poisoned partition (bad data, a bug in a
			// measure) must not take down the whole query, let alone the
			// process. The recovered panic becomes this partition's error.
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("panic: %v", r)
				}
				if timed {
					elapsed[i] = time.Since(t0)
				}
			}()
			results[i], funnels[i], errs[i] = e.localSearchContext(ctx, p, q.Points, tau, tr)
		}})
	}
	if err := e.cl.RunContext(ctx, tasks); err != nil {
		return nil, report, err
	}
	mergeDone := tr.StartSpan("merge", -1)
	var out []SearchResult
	for i, r := range results {
		if errs[i] != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				mergeDone(ctxErr)
				return nil, report, ctxErr
			}
			class := obs.Classify(errs[i])
			report.Skipped = append(report.Skipped, SkippedPartition{
				Partition: rel[i], Err: errs[i].Error(), Elapsed: elapsed[i], Class: class})
			e.met.recordSkip(class)
			continue
		}
		funnel.Merge(funnels[i])
		if timed {
			e.cost.Observe(rel[i], funnels[i].Verified, elapsed[i])
		}
		out = append(out, r...)
		if len(r) > 0 {
			// Results ship back to the driver.
			bytes := 0
			for _, sr := range r {
				bytes += sr.Traj.Bytes()
			}
			e.cl.Transfer(e.parts[rel[i]].Worker, driver, bytes)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Traj.ID < out[b].Traj.ID })
	mergeDone(nil)
	return out, report, nil
}

// SearchBatch runs many queries in one cluster stage, modelling the
// paper's workload of 1,000 random queries: each query's local tasks are
// scattered to the owning workers and execute in parallel. A panic in a
// partition task propagates (legacy crash semantics); lifecycle-aware
// callers use SearchBatchContext.
func (e *Engine) SearchBatch(qs []*traj.T, tau float64) [][]SearchResult {
	out, reports, err := e.SearchBatchContext(context.Background(), qs, tau)
	if err != nil {
		panic(err) // unreachable with a background context
	}
	for _, r := range reports {
		if r.Partial() {
			panic(r.err("search batch"))
		}
	}
	return out
}

// SearchBatchContext is SearchBatch with query-lifecycle control and
// per-query observability: every (query, partition) task runs under a
// recover, a failed partition lands in that query's SkipReport (the
// in-process analogue of AllowPartial) instead of crashing the process,
// and each non-empty query counts into the engine's search metrics with
// its own pruning funnel. Cancellation is never partial: a done context
// returns ctx.Err(). The returned reports slice is indexed like qs.
func (e *Engine) SearchBatchContext(ctx context.Context, qs []*traj.T, tau float64) ([][]SearchResult, []*SkipReport, error) {
	out := make([][]SearchResult, len(qs))
	reports := make([]*SkipReport, len(qs))
	for i := range reports {
		reports[i] = &SkipReport{}
	}
	if err := ctx.Err(); err != nil {
		return nil, reports, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	timed := e.met != nil
	var qStart time.Time
	if timed {
		qStart = time.Now()
	}
	// One result slot per (query, partition) task; merged after the stage
	// so the batch needs no locking in the hot path.
	type slot struct {
		qi, pid int
		res     []SearchResult
		funnel  obs.Funnel
		elapsed time.Duration
		err     error
	}
	var slots []*slot
	funnels := make([]obs.Funnel, len(qs))
	valid := make([]bool, len(qs))
	tasks := make([]cluster.Task, 0, len(qs))
	const driver = 0
	for qi, q := range qs {
		if q == nil || len(q.Points) == 0 {
			continue
		}
		valid[qi] = true
		q := q
		rel := e.relevantPartitions(q.Points, tau)
		funnels[qi] = obs.Funnel{Partitions: int64(len(e.parts)), Relevant: int64(len(rel))}
		for _, pid := range rel {
			p := e.parts[pid]
			e.cl.Transfer(driver, p.Worker, q.Bytes())
			st := &slot{qi: qi, pid: pid}
			slots = append(slots, st)
			tasks = append(tasks, cluster.Task{Worker: p.Worker, Fn: func() {
				var t0 time.Time
				if timed {
					t0 = time.Now()
				}
				defer func() {
					if r := recover(); r != nil {
						st.err = fmt.Errorf("panic: %v", r)
					}
					if timed {
						st.elapsed = time.Since(t0)
					}
				}()
				st.res, st.funnel, st.err = e.localSearchContext(ctx, p, q.Points, tau, nil)
			}})
		}
	}
	if err := e.cl.RunContext(ctx, tasks); err != nil {
		return nil, reports, err
	}
	for _, st := range slots {
		if st.err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, reports, ctxErr
			}
			class := obs.Classify(st.err)
			reports[st.qi].Skipped = append(reports[st.qi].Skipped, SkippedPartition{
				Partition: st.pid, Err: st.err.Error(), Elapsed: st.elapsed, Class: class})
			e.met.recordSkip(class)
			continue
		}
		funnels[st.qi].Merge(st.funnel)
		if timed {
			e.cost.Observe(st.pid, st.funnel.Verified, st.elapsed)
		}
		out[st.qi] = append(out[st.qi], st.res...)
	}
	for _, r := range out {
		sort.Slice(r, func(a, b int) bool { return r[a].Traj.ID < r[b].Traj.ID })
	}
	if e.met != nil {
		// Per-query counters and funnels; the stage's wall time lands as a
		// single latency observation (the queries ran interleaved in one
		// stage, so per-query latencies are not individually attributable).
		e.met.searchLatency.Observe(time.Since(qStart).Microseconds())
		for qi, ok := range valid {
			if !ok {
				continue
			}
			e.met.searches.Inc()
			e.met.searchFunnel.Record(funnels[qi])
		}
	}
	return out, reports, nil
}

// localSearchContext runs one partition's local search (View.Search) over
// the view of it this query holds the read lock for. When tr is non-nil the
// two phases land on it as a trie-descend and a verify span, each carrying
// its funnel stages; a failed search leaves its error on the first and no
// verify span.
func (e *Engine) localSearchContext(ctx context.Context, p *Partition, q []geom.Point, tau float64, tr *obs.Trace) ([]SearchResult, obs.Funnel, error) {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	out, st, err := p.view().Search(ctx, e.opts.Measure, q, tau, e.opts.VerifyParallelism, tr != nil)
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
