package dnet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/rpc"
	"slices"
	"strings"
	"sync"
	"time"

	"dita/internal/core"
	"dita/internal/obs"
	"dita/internal/traj"
)

// queryOp is a coordinator query kind.
type queryOp int

const (
	opSearch queryOp = iota
	opKNN
	opJoin
)

// ops names each kind in errors and gives the worker method and span of a
// search or kNN partition probe (a join edge runs its own loop, shipEdge).
var ops = [...]struct{ label, method, span string }{
	opSearch: {"search", "Worker.Search", "partition-search"},
	opKNN:    {"knn", "Worker.KNN", "partition-knn"},
	opJoin:   {label: "join"},
}

// cutoverReplans bounds the re-plans of one query racing rebalance
// cutovers. Each reads a strictly newer layout, so more than a few only
// happen under continuous churn — then the query reports its skips.
const cutoverReplans = 3

// queryRun is one query between admission and its result.
type queryRun struct {
	c   *Coordinator
	ctx context.Context
	op  queryOp
	qs  *QueryStats // may be nil
	tr  *obs.Trace  // qs.Trace, or nil
	// timed: qs or the metrics registry reads the query's clock.
	timed   bool
	start   time.Time
	release func()

	report              PartialReport
	funnel              obs.Funnel
	attempts, failovers int
}

// query runs one coordinator query the way the paper's system runs every
// query (§5.2, §6): begin admits it; the datasets are looked up (right is
// "" but for a join); pass plans against a fresh view of the global index,
// probes one partition — a join: one partition pair — per plan entry and
// merges; finish records it. A rebalance cutover can retire partitions
// between a plan and its probes: the probes then fail on every replica
// ("not loaded" — the former owners unloaded the retired pid) though no
// worker is unhealthy and every moved trajectory is serveable in the fresh
// layout. When pass reports its skips stale in that sense, the query runs
// it again, at most cutoverReplans times; with the autopilot cutting over
// on its own schedule the race is routine. Each pass starts from an empty
// report; attempts and failovers add up across passes.
func (c *Coordinator) query(ctx context.Context, op queryOp, qs *QueryStats, left, right string,
	pass func(run *queryRun, lt, rt *dispatchedDataset) (stale bool, err error)) (*PartialReport, error) {
	run, err := c.begin(ctx, op, qs)
	if err != nil {
		return &run.report, err
	}
	defer run.release()
	lt, err := c.dataset(left)
	rt := lt
	if err == nil && right != "" {
		rt, err = c.dataset(right)
	}
	if err != nil {
		return &run.report, err
	}
	for attempt := 0; ; attempt++ {
		run.report.Skipped = nil
		stale, err := pass(run, lt, rt)
		if err != nil {
			return &run.report, err
		}
		if !stale || attempt == cutoverReplans {
			return &run.report, run.finish(left, right)
		}
	}
}

// begin admits a query at unit cost through the admission gate and records
// the wait: qs.AdmissionWait, the admission-wait histogram and the admit
// span. On a rejection the run carries only its empty report.
func (c *Coordinator) begin(ctx context.Context, op queryOp, qs *QueryStats) (*queryRun, error) {
	run := &queryRun{c: c, ctx: ctx, op: op, qs: qs, timed: qs != nil || c.met != nil}
	if qs != nil {
		run.tr = qs.Trace
	}
	if run.timed {
		run.start = time.Now()
	}
	release, err := c.adm.Acquire(ctx, 1)
	if run.timed {
		wait := time.Since(run.start)
		if qs != nil {
			qs.AdmissionWait = wait
		}
		if c.met != nil {
			c.met.admissionWait.Observe(wait.Microseconds())
		}
		if run.tr != nil {
			s := obs.Span{Name: "admit", Partition: -1, Start: run.start.Sub(run.tr.Begin), Duration: wait}
			if err != nil {
				s.Err, s.Class = err.Error(), obs.Classify(err)
			}
			run.tr.Add(s)
		}
	}
	run.release = release
	return run, err
}

// finish ends a query that ran to its result: it fills qs, counts the op
// with its latency and funnel, and fails a partial result unless
// AllowPartial.
func (run *queryRun) finish(left, right string) error {
	if run.timed {
		elapsed := time.Since(run.start)
		if qs := run.qs; qs != nil {
			qs.Funnel = run.funnel
			qs.Elapsed = elapsed
			qs.Attempts = run.attempts
			qs.Failovers = run.failovers
		}
		if run.c.met != nil {
			m := &run.c.met.ops[run.op]
			m.count.Inc()
			m.latency.Observe(elapsed.Microseconds())
			m.funnel.Record(run.funnel)
		}
	}
	if !run.report.Partial() || run.c.cfg.AllowPartial {
		return nil
	}
	what := fmt.Sprintf("%s %q", ops[run.op].label, left)
	if right != "" {
		what += fmt.Sprintf("⋈%q", right)
	}
	s := run.report.Skipped[0]
	return fmt.Errorf("dnet: %s: %d partition(s) unreachable (first: %s/%d: %s)",
		what, len(run.report.Skipped), s.Dataset, s.Partition, s.Err)
}

// retired reports whether a cutover has retired partition pid.
func (dd *dispatchedDataset) retired(pid int) bool {
	dd.mu.Lock()
	defer dd.mu.Unlock()
	return dd.lay.Retired(pid)
}

// allSkippedRetired is a search or kNN pass's staleness: it skipped
// something, and every partition it skipped is now retired.
func (run *queryRun) allSkippedRetired(dd *dispatchedDataset) bool {
	for _, s := range run.report.Skipped {
		if !dd.retired(s.Partition) {
			return false
		}
	}
	return run.report.Partial()
}

// traceIDs returns the ids that tie one RPC to the query's trace; none
// when the query is untraced.
func (run *queryRun) traceIDs() (trace, span string) {
	if run.tr == nil {
		return "", ""
	}
	return run.tr.ID, obs.NewTraceID()
}

// pruned records the global-prune span of a plan begun at start, with the
// funnel's global stages.
func (run *queryRun) pruned(start time.Time) {
	if run.tr != nil {
		f := run.funnel
		run.tr.Add(obs.Span{Name: "global-prune", Partition: -1,
			Start: start.Sub(run.tr.Begin), Duration: time.Since(start), Funnel: &f})
	}
}

// remainingMillis converts a context deadline into the in-band budget
// stamped on worker calls; 0 means unbounded. An already-expired deadline
// still sends 1ms — the caller's next ctx check aborts before the call.
func remainingMillis(ctx context.Context) int64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	rem := time.Until(dl).Milliseconds()
	if rem < 1 {
		rem = 1
	}
	return rem
}

// probeState is one probe's bookkeeping: the partition, the RPC attempts
// (managed-client retries included) and replicas it took, and — when no
// replica answered — its skip.
type probeState struct {
	pid             int
	attempts, tried int
	skipped         *SkippedPartition
}

func (s *probeState) state() *probeState { return s }

// partitionCall is a Worker.Search or Worker.KNN probe with its args and
// reply (the two answer alike). The calls of a fan-out live in one slice,
// so a probe allocates nothing of its own.
type partitionCall interface {
	state() *probeState
	// attempt readies the call for one try — the args stamped with the
	// query's remaining budget, the reply cleared — and returns both.
	attempt(timeoutMillis int64) (args any, reply *SearchReply)
}

type searchCall struct {
	probeState
	args  SearchArgs
	reply SearchReply
}

func (s *searchCall) attempt(ms int64) (any, *SearchReply) {
	s.args.TimeoutMillis, s.reply = ms, SearchReply{}
	return &s.args, &s.reply
}

type knnCall struct {
	probeState
	args  KNNArgs
	reply SearchReply
}

func (k *knnCall) attempt(ms int64) (any, *SearchReply) {
	k.args.TimeoutMillis, k.reply = ms, SearchReply{}
	return &k.args, &k.reply
}

// probe runs one partition RPC of a search or kNN fan-out and marks wg
// done. It tries the partition's replicas live-first, checking the query's
// context before each so a dead query stops consuming failover attempts;
// judges each failed replica (a transport failure counts against it, an
// application error is proof of life, a cancelled call neither); feeds the
// answering partition's read cost to the autopilot; and records the
// partition span — or, when no replica answered, the skip.
func (run *queryRun) probe(wg *sync.WaitGroup, dd *dispatchedDataset, call partitionCall) {
	defer wg.Done()
	c, ctx, kind := run.c, run.ctx, &ops[run.op]
	st := call.state()
	// Unconditional: a clock read is noise next to the RPC it brackets, and
	// skip reports carry timing even with observability off.
	start := time.Now()
	var lastErr error
	for _, w := range c.replicaOrder(dd, st.pid) {
		if err := ctx.Err(); err != nil {
			lastErr = err
			break
		}
		args, reply := call.attempt(remainingMillis(ctx))
		st.tried++
		n, err := c.clients[w].CallContextN(ctx, kind.method, args, reply)
		st.attempts += n
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			if retryableError(err) {
				c.health.failure(w, false)
			} else {
				c.health.success(w)
			}
			continue
		}
		c.health.success(w)
		dd.cost.Observe(st.pid, reply.Funnel.Verified, time.Since(start))
		if run.tr != nil {
			f := reply.Funnel
			run.tr.Add(obs.Span{Name: kind.span, Worker: c.addrs[w],
				Partition: st.pid, Attempts: st.attempts,
				Start: start.Sub(run.tr.Begin), Duration: time.Since(start),
				Remote: time.Duration(reply.ElapsedMicros) * time.Microsecond, Funnel: &f})
		}
		return
	}
	if lastErr == nil {
		// Healing can drain a replica list to empty (Replicas=1, or every
		// re-load still failing): nothing to even try.
		lastErr = fmt.Errorf("dnet: no replicas for partition %s/%d", dd.name, st.pid)
	}
	elapsed, class := time.Since(start), obs.Classify(lastErr)
	st.skipped = &SkippedPartition{Dataset: dd.name, Partition: st.pid, Err: lastErr.Error(),
		Attempts: st.attempts, Elapsed: elapsed, Class: class}
	if run.tr != nil {
		run.tr.Add(obs.Span{Name: kind.span, Partition: st.pid, Attempts: st.attempts,
			Start: start.Sub(run.tr.Begin), Duration: elapsed, Err: lastErr.Error(), Class: class})
	}
}

// account adds one probe's attempts and failovers to the query and to the
// retry metrics, and returns its skip: nil when a replica answered.
func (run *queryRun) account(st *probeState) *SkippedPartition {
	run.c.met.recordRetries(st.attempts, st.tried)
	run.attempts += st.attempts
	if st.tried > 1 {
		run.failovers += st.tried - 1
	}
	return st.skipped
}

// skip adds one entry to the query's report and to the skip metrics.
func (run *queryRun) skip(s SkippedPartition) {
	run.report.Skipped = append(run.report.Skipped, s)
	run.c.met.recordSkip(s.Class)
}

// noReport drops a query's partial report, for the callers that want only
// the result or the error.
func noReport[T any](v T, _ *PartialReport, err error) (T, error) { return v, err }

// Search is SearchTraced without a context, a report or stats.
func (c *Coordinator) Search(name string, q *traj.T, tau float64) ([]SearchHit, error) {
	return noReport(c.SearchTraced(context.Background(), name, q, tau, nil))
}

// SearchTraced fans a threshold search out to the workers owning the
// partitions the global index cannot exclude and merges their verified hits
// (ascending id), failing over across each partition's replicas. The query
// passes admission; a cancelled ctx fails it with ctx.Err() once the
// fan-out drains (cancellation is never partial), and a ctx deadline
// travels to the workers in-band. The report lists exactly the partitions
// whose every replica was unreachable; without AllowPartial a non-empty
// report is an error. qs (may be nil) receives the whole-query funnel,
// attempt/failover totals and timings, and — with qs.Trace set — admit,
// global-prune, one partition-search span per partition RPC (worker,
// attempts, remote time, partition-local funnel), and merge spans.
func (c *Coordinator) SearchTraced(ctx context.Context, name string, q *traj.T, tau float64, qs *QueryStats) ([]SearchHit, *PartialReport, error) {
	if q == nil || len(q.Points) == 0 {
		return nil, &PartialReport{}, ctx.Err()
	}
	var out []SearchHit
	rep, err := c.query(ctx, opSearch, qs, name, "", func(run *queryRun, dd, _ *dispatchedDataset) (bool, error) {
		gStart := time.Now()
		// The partition count comes from the view too: the layout grows under
		// dd.mu at a rebalance cutover.
		view := dd.view()
		rel := view.Relevant(c.m, q.Points, tau)
		run.funnel = obs.Funnel{Partitions: int64(len(view.Bounds)), Relevant: int64(len(rel))}
		run.pruned(gStart)
		calls := make([]searchCall, len(rel))
		var wg sync.WaitGroup
		wg.Add(len(calls))
		for i, pid := range rel {
			calls[i].pid = pid
			calls[i].args = SearchArgs{Dataset: name, Partition: pid, Query: q.Points, Tau: tau}
			calls[i].args.TraceID, calls[i].args.SpanID = run.traceIDs()
			go run.probe(&wg, dd, &calls[i])
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return false, err
		}
		mergeDone := run.tr.StartSpan("merge", -1)
		out = nil
		for i := range calls {
			if sk := run.account(&calls[i].probeState); sk != nil {
				run.skip(*sk)
				continue
			}
			run.funnel.Merge(calls[i].reply.Funnel)
			out = append(out, calls[i].reply.Hits...)
		}
		slices.SortFunc(out, func(a, b SearchHit) int { return cmp.Compare(a.ID, b.ID) })
		mergeDone(nil)
		return run.allSkippedRetired(dd), nil
	})
	if err != nil {
		return nil, rep, err
	}
	return out, rep, nil
}

// isPeerUnreachable detects the Ship-side signal for "the destination
// worker is down" so the coordinator fails over to another dst replica
// rather than another src replica. Only an rpc.ServerError that starts
// with the exact prefix Worker.Ship emits (peerUnreachablePrefix,
// worker.go) qualifies — never a substring match, which an unrelated
// application error mentioning the phrase could trip.
func isPeerUnreachable(err error) bool {
	var se rpc.ServerError
	return errors.As(err, &se) && strings.HasPrefix(string(se), peerUnreachablePrefix)
}

// joinCall is one edge of a join plan — a source partition whose relevant
// members ship to a destination partition — and what came of it. The args
// name both ends and carry the destination bounds, captured at plan time so
// concurrent ingests growing them can't tear the relevance check on the
// workers.
type joinCall struct {
	probeState
	src, dst *dispatchedDataset
	args     ShipArgs
	reply    JoinReply
	// mirror: an edge of a self-join, standing for both orientations of its
	// partition pair; diagonal: that pair is one partition twice.
	mirror, diagonal bool
}

// Join is JoinTraced without a context, a report or stats.
func (c *Coordinator) Join(left, right string, tau float64) ([]WirePair, error) {
	return noReport(c.JoinTraced(context.Background(), left, right, tau, nil))
}

// JoinTraced computes the distributed similarity join of two dispatched
// datasets. For every partition pair core.PairRelevant keeps, a live replica
// of the smaller partition (a size proxy for the paper's cost model, which
// the in-process engine samples) selects and ships its relevant members
// straight to a live replica of the other, which runs the local join; pairs
// flow back through the chain (shipEdge). A self-join is planned like the
// engine's: one edge per unordered partition pair, a partition's edge with
// itself joined in place with nothing shipped, each verified pair shipped
// once and returned in both orientations, and a lost edge reported against
// both its partitions. The lifecycle is SearchTraced's, with deadlines
// through both hops of a shipment and one edge-join span per shipment
// (source>destination workers, attempts across both replica loops,
// whole-shipment remote time, destination-local funnel); the funnel counts
// partition pairs, and a pass is stale when every lost edge has a retired
// end.
func (c *Coordinator) JoinTraced(ctx context.Context, left, right string, tau float64, qs *QueryStats) ([]WirePair, *PartialReport, error) {
	var pairs []WirePair
	rep, err := c.query(ctx, opJoin, qs, left, right, func(run *queryRun, lt, rt *dispatchedDataset) (bool, error) {
		gStart := time.Now()
		self := lt == rt
		ltV, ltTrajs := lt.joinView()
		rtV, rtTrajs := ltV, ltTrajs
		if !self {
			rtV, rtTrajs = rt.joinView()
		}
		var edges []joinCall
		for i, pt := range ltV.Bounds {
			if pt.Retired {
				continue
			}
			for j, pq := range rtV.Bounds {
				if pq.Retired || (self && j < i) || !core.PairRelevant(c.m, pt.MBRf, pt.MBRl, pq.MBRf, pq.MBRl, tau) {
					continue
				}
				e := joinCall{mirror: self, args: ShipArgs{Tau: tau}}
				// Orientation: ship the smaller side.
				if ltTrajs[i] <= rtTrajs[j] {
					e.src, e.dst, e.diagonal = lt, rt, self && i == j
					e.args.SrcPartition, e.args.DstPartition = i, j
					e.args.DstMBRf, e.args.DstMBRl = pq.MBRf, pq.MBRl
				} else {
					e.src, e.dst, e.args.Flip = rt, lt, true
					e.args.SrcPartition, e.args.DstPartition = j, i
					e.args.DstMBRf, e.args.DstMBRl = pt.MBRf, pt.MBRl
				}
				e.args.SrcDataset, e.args.DstDataset = e.src.name, e.dst.name
				edges = append(edges, e)
			}
		}
		run.funnel = obs.Funnel{Partitions: int64(len(ltV.Bounds)) * int64(len(rtV.Bounds)), Relevant: int64(len(edges))}
		run.pruned(gStart)
		var wg sync.WaitGroup
		wg.Add(len(edges))
		for i := range edges {
			edges[i].args.TraceID, edges[i].args.SpanID = run.traceIDs()
			go run.shipEdge(&wg, &edges[i])
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return false, err
		}
		mergeDone := run.tr.StartSpan("merge", -1)
		total := 0
		for i := range edges {
			if n := len(edges[i].reply.Pairs); edges[i].mirror {
				total += 2 * n
			} else {
				total += n
			}
		}
		pairs = make([]WirePair, 0, total)
		seen := map[SkippedPartition]bool{}
		// A lost edge is stale when either end has retired since the plan:
		// whichever end the skip names, since a destination's "not loaded"
		// comes back through its source.
		stale := true
		for i := range edges {
			e := &edges[i]
			if sk := run.account(&e.probeState); sk != nil {
				stale = stale && (e.src.retired(e.args.SrcPartition) || e.dst.retired(e.args.DstPartition))
				// A mirror edge's pairs have their T in either partition:
				// both are missing answers, whichever side was unreachable.
				lost := []int{sk.Partition}
				if e.mirror {
					lost = []int{e.args.SrcPartition, e.args.DstPartition}
				}
				for _, pid := range lost {
					entry := *sk
					entry.Partition = pid
					key := SkippedPartition{Dataset: sk.Dataset, Partition: pid}
					if !seen[key] {
						seen[key] = true
						run.skip(entry)
					}
				}
				continue
			}
			run.funnel.Merge(e.reply.Funnel)
			pairs = append(pairs, e.reply.Pairs...)
			if e.mirror {
				// Ids are unique within a dispatched dataset (Dispatch rejects
				// duplicates), so equal ids are a member paired with itself.
				for _, p := range e.reply.Pairs {
					if p.TID != p.QID {
						pairs = append(pairs, WirePair{TID: p.QID, QID: p.TID, Distance: p.Distance})
					}
				}
			}
		}
		slices.SortFunc(run.report.Skipped, func(a, b SkippedPartition) int {
			return cmp.Or(strings.Compare(a.Dataset, b.Dataset), cmp.Compare(a.Partition, b.Partition))
		})
		pairs = core.SortByIDPair(pairs, func(p *WirePair) (int, int) { return p.TID, p.QID })
		mergeDone(nil)
		return stale && run.report.Partial(), nil
	})
	if err != nil {
		return nil, rep, err
	}
	return pairs, rep, nil
}

// shipEdge runs one join edge and marks wg done: a replica of the source
// partition selects its members relevant to the destination partition and
// ships them to a replica of the destination, which joins them. Both ends
// fail over — a peer-unreachable refusal moves on to the next destination
// replica, any other failure to the next source replica — and the skip of
// an edge no replica pair could run names the source partition when no
// source replica answered, the destination otherwise.
func (run *queryRun) shipEdge(wg *sync.WaitGroup, e *joinCall) {
	defer wg.Done()
	c, ctx, tr := run.c, run.ctx, run.tr
	// Unconditional, like the partition probe: skip reports carry timing
	// even with observability off.
	start := time.Now()
	src, dst := e.args.SrcPartition, e.args.DstPartition
	// One attempt at the edge: the source replica sw selects and ships to
	// the destination replica dw.
	call := func(sw, dw int) (int, error) {
		e.args.DstAddr, e.args.TimeoutMillis = c.addrs[dw], remainingMillis(ctx)
		return c.clients[sw].CallContextN(ctx, "Worker.Ship", &e.args, &e.reply)
	}
	if e.diagonal {
		// A diagonal edge ships nothing: the replica that would select the
		// partition's members joins them in place (Worker.Join on its own
		// view), so its one "destination" is itself.
		jargs := &JoinArgs{Dataset: e.dst.name, Partition: dst, Tau: e.args.Tau, Diagonal: true,
			TraceID: e.args.TraceID, SpanID: e.args.SpanID}
		call = func(sw, _ int) (int, error) {
			jargs.TimeoutMillis = remainingMillis(ctx)
			return c.clients[sw].CallContextN(ctx, "Worker.Join", jargs, &e.reply)
		}
	}
	var lastErr error
	srcReached := false
	for _, sw := range c.replicaOrder(e.src, src) {
		if err := ctx.Err(); err != nil {
			lastErr = err
			break
		}
		dstDown := false
		dsts := []int{sw}
		if !e.diagonal {
			dsts = c.replicaOrder(e.dst, dst)
		}
		for _, dw := range dsts {
			// Same rule as the partition probe: a dead query stops consuming
			// replica attempts immediately.
			if err := ctx.Err(); err != nil {
				lastErr = err
				break
			}
			e.reply = JoinReply{}
			e.tried++
			n, err := call(sw, dw)
			e.attempts += n
			if err == nil {
				c.health.success(sw)
				if tr != nil {
					f := e.reply.Funnel
					tr.Add(obs.Span{Name: "edge-join",
						Worker:    c.addrs[sw] + ">" + c.addrs[dw],
						Partition: dst, Attempts: e.attempts,
						Start: start.Sub(tr.Begin), Duration: time.Since(start),
						Remote: time.Duration(e.reply.ElapsedMicros) * time.Microsecond,
						Probe:  time.Duration(e.reply.ProbeMicros) * time.Microsecond,
						Verify: time.Duration(e.reply.VerifyMicros) * time.Microsecond,
						Funnel: &f})
				}
				return
			}
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			if isPeerUnreachable(err) {
				// The src worker answered; the dst replica is down. Try the
				// next dst replica.
				srcReached = true
				c.health.failure(dw, false)
				dstDown = true
				continue
			}
			if retryableError(err) {
				// The src replica itself failed at the transport level; move
				// on to the next src replica.
				c.health.failure(sw, false)
			} else {
				// Application-level refusal: the src worker is alive, it just
				// can't serve this partition. Try the next src replica without
				// penalizing it.
				c.health.success(sw)
			}
			break
		}
		if dstDown && srcReached {
			// Every dst replica refused this reachable src; other src
			// replicas would see the same thing.
			break
		}
	}
	if lastErr == nil {
		// A replica list was drained to empty by healing, so the loops had
		// nothing to try. Attribute the side with no replicas left.
		srcReached = len(c.replicaOrder(e.dst, dst)) == 0 && len(c.replicaOrder(e.src, src)) > 0
	}
	lost, pid := e.src, src
	if srcReached {
		lost, pid = e.dst, dst
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("dnet: no replicas for partition %s/%d", lost.name, pid)
	}
	elapsed, class := time.Since(start), obs.Classify(lastErr)
	e.skipped = &SkippedPartition{Dataset: lost.name, Partition: pid, Err: lastErr.Error(),
		Attempts: e.attempts, Elapsed: elapsed, Class: class}
	if tr != nil {
		tr.Add(obs.Span{Name: "edge-join", Partition: dst, Attempts: e.attempts,
			Start: start.Sub(tr.Begin), Duration: elapsed, Err: lastErr.Error(), Class: class})
	}
}
