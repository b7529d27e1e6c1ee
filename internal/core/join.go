package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"dita/internal/cluster"
	"dita/internal/measure"
	"dita/internal/obs"
	"dita/internal/traj"
)

// Pair is one join answer: a similar (T, Q) pair and its distance.
type Pair struct {
	T, Q     *traj.T
	Distance float64
}

// JoinOptions tunes the distributed join (Section 6).
type JoinOptions struct {
	// SampleRate is the fraction of each partition sampled to estimate
	// the bi-graph edge weights (trans, comp).
	SampleRate float64
	// Lambda converts transmitted bytes into candidate-pair-equivalents:
	// TC = λ·NC + CC with λ = 1/(Δ·B) (Section 6.2). <= 0 uses a default
	// calibrated for Gigabit bandwidth and microsecond verifications.
	Lambda float64
	// DisableOrientation keeps every edge at its locally cheaper initial
	// direction without the greedy TC-reduction loop (ablation).
	DisableOrientation bool
	// DisableDivision turns off the division-based load balancing of
	// Section 6.3 (ablation: the "Naive" series of Figure 16).
	DisableDivision bool
	// DivisionQuantile is the cost quantile above which partitions are
	// divided; the paper uses 0.98.
	DivisionQuantile float64
	// Seed drives weight-estimation sampling.
	Seed int64
}

// DefaultJoinOptions mirrors the paper's settings.
func DefaultJoinOptions() JoinOptions {
	return JoinOptions{SampleRate: 0.05, DivisionQuantile: 0.98, Seed: 1}
}

// JoinStats reports the join's cost-model and execution counters.
type JoinStats struct {
	// Edges is the number of partition pairs that may contain results.
	Edges int
	// Oriented counts edges flipped by the greedy orientation.
	Oriented int
	// Divisions counts partition replicas created by load balancing.
	Divisions int
	// TrajsSent and BytesSent count shuffled trajectories.
	TrajsSent int
	BytesSent int
	// CandPairs counts candidate pairs produced by local tries.
	CandPairs int
	// Results is the answer count: ordered pairs, also for a self-join.
	Results int
	// LoadRatio is the cluster's max/min worker-time ratio after the join.
	LoadRatio float64
	// Funnel is the join's pruning funnel: Partitions counts possible
	// partition pairs, Relevant the bi-graph edges surviving partition-
	// level pruning, Considered the candidate pairs the shipped
	// trajectories were probed against (|shipped|·|dst| per edge), and the
	// remaining stages the verification cascade over candidate pairs.
	// A self-join (both sides one engine) plans and verifies each unordered
	// partition pair and trajectory pair once, so there every stage — and
	// Edges, CandPairs — counts unordered work; only Results counts the
	// ordered pairs returned.
	Funnel obs.Funnel
	// Trace, when non-nil, receives spans for bigraph construction,
	// orientation, balancing, selection, per-edge local joins, and merge.
	Trace *obs.Trace
}

// edge is one bi-graph edge between partition Ti (left, index into
// joinViews.left) and Qj (right, index into joinViews.right), with its two
// weight pairs (Section 6.2).
type edge struct {
	ti, qj int
	// transTQ/compTQ: weights if oriented Ti -> Qj (Ti's trajectories are
	// sent to and joined on Qj's worker). transQT/compQT: the reverse.
	transTQ, compTQ float64
	transQT, compQT float64
	// dirTQ is the chosen orientation: true means Ti -> Qj.
	dirTQ bool
	// execWorker is the worker executing this edge's local join after
	// division-based balancing (the receiving side's worker, or a replica
	// worker).
	execWorker int
	// mirror marks an edge of a self-join's symmetric plan, which holds
	// only the partition pairs ti <= qj: every pair the edge verifies is
	// returned as (a,b) and (b,a). diagonal marks a partition joined with
	// itself, where each unordered pair of members must be taken once.
	mirror, diagonal bool
}

// Join is JoinPartialContext without a context, where a measure mismatch
// or a skipped partition panics (legacy crash semantics).
func (e *Engine) Join(other *Engine, tau float64, opts JoinOptions, stats *JoinStats) []Pair {
	return partial(e.JoinPartialContext(context.Background(), other, tau, opts, stats)).must(opJoin)
}

// JoinPartialContext computes the distributed similarity join T ⋈_τ Q
// between two built engines (Algorithm 3). Both sides must use the same
// measure. stats may be nil. The context is checked while building and
// orienting the bi-graph, during trajectory selection, and between
// local-join verification steps; a done context returns ctx.Err() —
// cancellation is never partial. An edge whose selection or local-join task
// panics is dropped and its destination partition recorded in the
// SkipReport — both partitions of a self-join edge, whose pairs have their
// T in either — while pairs from the surviving edges are still returned; a
// strict caller turns the report into an error with SkipReport.Err.
//
// Joining an engine with itself is planned symmetrically: the bi-graph
// holds each unordered partition pair once, an off-diagonal edge returns
// every verified pair in both orientations, and a partition joined with
// itself verifies only the pairs (a,b) where a does not follow b in the
// partition's view (View) — a total order over visible members, not
// over ids, so members sharing an id are still paired. One threshold DP
// decides (a,b) and (b,a); every measure is bitwise symmetric (the Measure
// contract), so the answer is the two-sided join's, pair for pair.
func (e *Engine) JoinPartialContext(ctx context.Context, other *Engine, tau float64, opts JoinOptions, stats *JoinStats) ([]Pair, *SkipReport, error) {
	if err := e.checkPair(opJoin, other); err != nil {
		return nil, nil, err
	}
	if opts.SampleRate <= 0 || opts.SampleRate > 1 {
		opts.SampleRate = 0.05
	}
	if opts.DivisionQuantile <= 0 || opts.DivisionQuantile > 1 {
		opts.DivisionQuantile = 0.98
	}
	if opts.Lambda <= 0 {
		// λ = 1/(Δ·B): Δ ≈ 2 µs per candidate verification, B = 125 MB/s
		// => one candidate pair "costs" the same as 250 bytes on the wire.
		opts.Lambda = 1.0 / 250.0
	}
	run := e.begin(opJoin, stats.trace())
	tr := run.tr
	planDone := tr.StartSpan("bigraph", -1)
	// Every live partition of both sides is captured once, at one instant
	// (capture); the plan and the execution read only the captures.
	left, right := e.capture(other, nil)
	jv := joinViews{e: e, other: other, left: left.sides()}
	jv.right = jv.left
	if other != e {
		jv.right = right.sides()
	}
	edges, err := jv.buildBigraph(ctx, tau, opts)
	planDone(err)
	if err != nil {
		return nil, nil, err
	}
	run.funnel = obs.Funnel{
		Partitions: int64(len(jv.left)) * int64(len(jv.right)),
		Relevant:   int64(len(edges)),
	}
	if tr != nil {
		tr.Add(obs.Span{Name: "global-prune", Partition: -1,
			Funnel: &obs.Funnel{Partitions: run.funnel.Partitions, Relevant: run.funnel.Relevant}})
	}
	defer func() {
		if stats != nil {
			stats.Funnel = run.funnel
			stats.CandPairs = int(run.funnel.TrieCands)
		}
		run.finish()
	}()
	if stats != nil {
		stats.Edges = len(edges)
	}
	if len(edges) == 0 {
		return nil, &run.report, nil
	}
	orientDone := tr.StartSpan("orient", -1)
	flips, err := orient(ctx, edges, len(jv.left), len(jv.right), opts)
	orientDone(err)
	if err != nil {
		return nil, nil, err
	}
	divisions := jv.balance(edges, opts)
	if stats != nil {
		stats.Oriented = flips
		stats.Divisions = divisions
	}
	perEdge, err := jv.executeJoin(ctx, &run, tau, edges, stats)
	if err != nil {
		return nil, nil, err
	}
	mergeDone := tr.StartSpan("merge", -1)
	pairs := SortByIDPair(slices.Concat(perEdge...), func(p *Pair) (int, int) { return p.T.ID, p.Q.ID })
	mergeDone(nil)
	if stats != nil {
		stats.Results = len(pairs)
		stats.LoadRatio = e.cl.LoadRatio()
	}
	return pairs, &run.report, nil
}

// side is one partition of a join side, the view the join reads it through
// and its global-index entry.
type side struct {
	*View
	p *Partition
	b PartBounds
}

// sides is a capture of every live partition as join sides, indexed by
// pid; a retired partition's side is empty.
func (ev *engineView) sides() []side {
	vs := make([]side, len(ev.parts))
	for i, b := range ev.lay.Bounds {
		if !b.Retired {
			vs[i] = side{&ev.views[i], ev.parts[i], b}
		}
	}
	return vs
}

// joinViews is one join's picture of both sides: left[i] is e's partition
// i, right[j] other's partition j, as the join captured them; for a
// self-join they are the same slice.
type joinViews struct {
	e, other    *Engine
	left, right []side
}

// buildBigraph finds candidate partition pairs and estimates edge weights
// by sampling (Section 6.2). Cancellation is checked per candidate pair
// (weight estimation runs trie searches, the expensive part). A self-join
// keeps only the pairs ti <= qj.
func (jv *joinViews) buildBigraph(ctx context.Context, tau float64, opts JoinOptions) ([]*edge, error) {
	m := jv.e.opts.Measure
	self := jv.e == jv.other
	rng := rand.New(rand.NewSource(opts.Seed))
	var edges []*edge
	for ti, vt := range jv.left {
		if vt.View == nil {
			continue
		}
		for qj, vq := range jv.right {
			if vq.View == nil || (self && qj < ti) {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			pt, pq := vt.b, vq.b
			if !PairRelevant(m, pt.MBRf, pt.MBRl, pq.MBRf, pq.MBRl, tau) {
				continue
			}
			ed := &edge{ti: ti, qj: qj, mirror: self, diagonal: self && ti == qj}
			// Both orientations are estimated by sampling; a diagonal edge
			// has only one.
			ed.transTQ, ed.compTQ = estimateDirection(m, vt, vq, tau, opts.SampleRate, rng)
			ed.transQT, ed.compQT = ed.transTQ, ed.compTQ
			if !ed.diagonal {
				ed.transQT, ed.compQT = estimateDirection(m, vq, vt, tau, opts.SampleRate, rng)
			}
			edges = append(edges, ed)
		}
	}
	return edges, nil
}

// estimateDirection estimates sending src's trajectories to dst, scaled up
// by the inverse sample rate: trans is the expected bytes shipped
// (trajectories of src with candidates in dst), comp the expected candidate
// pairs on dst. It samples slots of src's view, overlay included; a slot
// whose base member is masked contributes nothing, which keeps the
// estimate unbiased over the visible members however few of the slots they
// fill. comp counts what the local join will verify: unmasked trie
// candidates plus dst's unindexed overlay.
func estimateDirection(m measure.Measure, src, dst side, tau float64, rate float64, rng *rand.Rand) (trans, comp float64) {
	n := src.Len()
	if n == 0 {
		return 0, 0
	}
	k := int(float64(n)*rate + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	scale := float64(n) / float64(k)
	for s := 0; s < k; s++ {
		i := rng.Intn(n)
		t, _ := src.At(i)
		if !src.visible(i) || !TrajRelevant(m, t.Points, dst.b.MBRf, dst.b.MBRl, tau) {
			continue
		}
		trans += float64(t.Bytes()) * scale
		cands := len(dst.Overlay)
		for _, c := range dst.Index.Search(t.Points, m, tau, nil) {
			if dst.visible(c) {
				cands++
			}
		}
		comp += float64(cands) * scale
	}
	return trans, comp
}

// orient chooses edge directions to minimize the maximum per-partition
// total cost TC = λ·NC + CC (Section 6.2). The problem is NP-hard (graph
// orientation); the greedy algorithm initializes each edge to its locally
// cheaper direction and then repeatedly flips the best edge at the
// current argmax partition. Returns the number of flips. Cancellation is
// checked once per greedy iteration (each iteration scans all edges at
// the argmax node — O(edges²) total in the worst case).
func orient(ctx context.Context, edges []*edge, nT, nQ int, opts JoinOptions) (int, error) {
	λ := opts.Lambda
	// Node cost arrays: the nT T partitions, then the nQ Q partitions.
	tc := make([]float64, nT+nQ)
	nodeT := func(ed *edge) int { return ed.ti }
	nodeQ := func(ed *edge) int { return nT + ed.qj }
	// Cost contribution of an edge given its direction (Section 6.2):
	// orientation Ti->Qj charges the network cost to Ti (sender) and the
	// computation cost to Qj (receiver runs the local join).
	apply := func(ed *edge, sign float64) {
		if ed.dirTQ {
			tc[nodeT(ed)] += sign * λ * ed.transTQ
			tc[nodeQ(ed)] += sign * ed.compTQ
		} else {
			tc[nodeQ(ed)] += sign * λ * ed.transQT
			tc[nodeT(ed)] += sign * ed.compQT
		}
	}
	for _, ed := range edges {
		ed.dirTQ = λ*ed.transTQ+ed.compTQ <= λ*ed.transQT+ed.compQT
		apply(ed, +1)
	}
	if opts.DisableOrientation {
		return 0, nil
	}
	byNode := make(map[int][]*edge)
	for _, ed := range edges {
		byNode[nodeT(ed)] = append(byNode[nodeT(ed)], ed)
		byNode[nodeQ(ed)] = append(byNode[nodeQ(ed)], ed)
	}
	maxTC := func() (int, float64) {
		bi, bv := -1, -1.0
		for i, v := range tc {
			if v > bv {
				bi, bv = i, v
			}
		}
		return bi, bv
	}
	flips := 0
	for iter := 0; iter < 4*len(edges)+16; iter++ {
		if err := ctx.Err(); err != nil {
			return flips, err
		}
		node, worst := maxTC()
		var bestEdge *edge
		bestNew := worst
		for _, ed := range byNode[node] {
			apply(ed, -1)
			ed.dirTQ = !ed.dirTQ
			apply(ed, +1)
			if _, nv := maxTC(); nv < bestNew {
				bestNew = nv
				bestEdge = ed
			}
			apply(ed, -1)
			ed.dirTQ = !ed.dirTQ
			apply(ed, +1)
		}
		if bestEdge == nil {
			break
		}
		apply(bestEdge, -1)
		bestEdge.dirTQ = !bestEdge.dirTQ
		apply(bestEdge, +1)
		flips++
	}
	return flips, nil
}

// balance implements the division-based load balancing of Section 6.3:
// partitions whose total cost exceeds the DivisionQuantile cost get their
// edges spread over ⌈TC/TC_q⌉ replica workers. Here "dividing" a
// partition means assigning subsets of its incident local-join work to
// distinct workers (the replica receives a copy of the partition's index
// and data, accounted as network transfer at execution time). Returns
// the number of replicas created.
func (jv *joinViews) balance(edges []*edge, opts JoinOptions) int {
	// Default execution worker: the receiving partition's worker.
	for _, ed := range edges {
		if ed.dirTQ {
			ed.execWorker = jv.right[ed.qj].p.Worker
		} else {
			ed.execWorker = jv.left[ed.ti].p.Worker
		}
	}
	if opts.DisableDivision {
		return 0
	}
	λ := opts.Lambda
	// Receiving-side cost per partition node (the execution workload).
	nT := len(jv.left)
	type nodeEdges struct {
		cost  float64
		edges []*edge
	}
	nodes := make(map[int]*nodeEdges)
	add := func(id int, ed *edge, c float64) {
		ne := nodes[id]
		if ne == nil {
			ne = &nodeEdges{}
			nodes[id] = ne
		}
		ne.cost += c
		ne.edges = append(ne.edges, ed)
	}
	for _, ed := range edges {
		if ed.dirTQ {
			add(nT+ed.qj, ed, λ*ed.transTQ+ed.compTQ)
		} else {
			add(ed.ti, ed, λ*ed.transQT+ed.compQT)
		}
	}
	// The quantile ranges over ALL partitions of both sides (the paper
	// sorts P1..PN with N = |T partitions| + |Q partitions|), zero-cost
	// ones included — otherwise a single dominating node would be its own
	// percentile and never divide.
	costs := make([]float64, nT+len(jv.right))
	total := 0.0
	for id, ne := range nodes {
		if id < len(costs) {
			costs[id] = ne.cost
		}
		total += ne.cost
	}
	sort.Float64s(costs)
	qIdx := int(opts.DivisionQuantile * float64(len(costs)-1))
	tcq := costs[qIdx]
	if tcq <= 0 {
		// Load so skewed that the quantile partition is idle: fall back to
		// the average load per partition as the division unit.
		tcq = total / float64(len(costs))
	}
	if tcq <= 0 {
		return 0
	}
	W := jv.e.cl.Workers()
	replicas := 0
	// Deterministic iteration order over nodes.
	ids := make([]int, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ne := nodes[id]
		if ne.cost <= tcq {
			continue
		}
		copies := int(math.Ceil(ne.cost / tcq))
		if copies > W {
			copies = W
		}
		if copies <= 1 {
			continue
		}
		// Spread the node's edges over `copies` workers round-robin,
		// starting at the home worker.
		home := ne.edges[0].execWorker
		for i, ed := range ne.edges {
			ed.execWorker = (home + i%copies) % W
		}
		replicas += copies - 1
	}
	return replicas
}

// executeJoin ships trajectories along the oriented edges and runs the
// local joins (Algorithm 3 lines 4–9) in two stages: (1) on each sending
// worker, select the trajectories that have candidates in the destination
// partition via the global-index check; (2) shuffle them to the executing
// worker and probe the destination's trie there. It returns each edge's
// pairs, a mirror edge's in both orientations. An edge whose task panics
// is skipped (attributed to its destination partition, and to its source
// too when the edge is mirrored) and the other edges proceed.
func (jv *joinViews) executeJoin(ctx context.Context, run *queryRun, tau float64, edges []*edge, stats *JoinStats) ([][]Pair, error) {
	e, tr := jv.e, run.tr
	trajsSent, bytesSent := 0, 0
	tasks := make([]cluster.Task, 0, len(edges))
	type edgeState struct {
		ed      *edge
		shipped []*traj.T    // selected source members (base + overlay)
		smeta   []VerifyMeta // their verification metadata
		slots   []int        // their slots in the partition's view; diagonal edges only
		pairs   []Pair
		stats   ScanStats
		elapsed time.Duration
		err     error
	}
	states := make([]*edgeState, len(edges))
	for i, ed := range edges {
		states[i] = &edgeState{ed: ed}
	}
	selectDone := tr.StartSpan("select", -1)
	for _, st := range states {
		src, dst, dstEngine, _ := jv.edgeSides(st.ed)
		tasks = append(tasks, cluster.Task{Worker: src.p.Worker, Fn: func() {
			defer recoverTo(&st.err)
			var slots []int
			st.shipped, st.smeta, slots, st.err = src.Select(ctx, func(t *traj.T) bool {
				return TrajRelevant(dstEngine.opts.Measure, t.Points, dst.b.MBRf, dst.b.MBRl, tau)
			})
			if st.ed.diagonal {
				st.slots = slots
			}
		}})
	}
	if err := e.cl.RunContext(ctx, tasks); err != nil {
		selectDone(err)
		return nil, err
	}
	selectDone(nil)

	// Stage 2: shuffle + local join. If the executor is a replica worker
	// (division balancing), the receiving partition's index+data transfer
	// is accounted too.
	tasks = tasks[:0]
	replicated := map[[2]int]bool{}
	for _, st := range states {
		if st.err != nil || len(st.shipped) == 0 {
			continue
		}
		src, dst, dstEngine, flip := jv.edgeSides(st.ed)
		bytes := 0
		for _, t := range st.shipped {
			bytes += t.Bytes()
		}
		e.cl.Transfer(src.p.Worker, st.ed.execWorker, bytes)
		trajsSent += len(st.shipped)
		bytesSent += bytes
		if st.ed.execWorker != dst.p.Worker {
			key := [2]int{boolToInt(flip)*1_000_000 + dst.p.ID, st.ed.execWorker}
			if !replicated[key] {
				replicated[key] = true
				e.cl.Transfer(dst.p.Worker, st.ed.execWorker, dst.baseBytes+dst.Index.SizeBytes())
			}
		}
		tasks = append(tasks, cluster.Task{Worker: st.ed.execWorker, Fn: func() {
			t0 := time.Now()
			defer func() { st.elapsed = time.Since(t0) }()
			defer recoverTo(&st.err)
			st.stats, st.err = JoinEdge(ctx, dstEngine.opts.Measure, dst.View, st.shipped, st.smeta, st.slots,
				tau, dstEngine.opts.VerifyParallelism, func(hits []JoinHit) {
					st.pairs = make([]Pair, 0, len(hits)*(1+boolToInt(st.ed.mirror)))
					for _, h := range hits {
						local, _ := dst.At(h.Pair.Local)
						p := Pair{T: st.shipped[h.Pair.Shipped], Q: local, Distance: h.Distance}
						if flip {
							p.T, p.Q = p.Q, p.T
						}
						st.pairs = append(st.pairs, p)
						// A member paired with itself (its own slot, not merely
						// its own id) has no second orientation.
						if st.ed.mirror && !(st.ed.diagonal && h.Pair.Local == st.slots[h.Pair.Shipped]) {
							st.pairs = append(st.pairs, Pair{T: p.Q, Q: p.T, Distance: p.Distance})
						}
					}
				})
		}})
	}
	if err := e.cl.RunContext(ctx, tasks); err != nil {
		return nil, err
	}
	// Fold edge failures into the skip report, one entry per partition
	// (several edges may involve the same partition).
	perEdge := make([][]Pair, 0, len(states))
	seen := map[int]bool{}
	for _, st := range states {
		src, dst, _, _ := jv.edgeSides(st.ed)
		if st.err == nil {
			run.funnel.Merge(st.stats.Funnel)
			perEdge = append(perEdge, st.pairs)
			if tr != nil {
				f := st.stats.Funnel
				tr.Add(obs.Span{Name: "local-join", Partition: dst.p.ID, Duration: st.elapsed,
					Probe: st.stats.Probe, Verify: st.stats.Verify, Funnel: &f})
			}
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if tr != nil {
			tr.Add(obs.Span{Name: "local-join", Partition: dst.p.ID,
				Duration: st.elapsed, Err: st.err.Error(), Class: obs.Classify(st.err)})
		}
		lost := []int{dst.p.ID}
		if st.ed.mirror {
			// The edge's pairs have their T in either partition.
			lost = append(lost, src.p.ID)
		}
		for _, pid := range lost {
			if !seen[pid] {
				seen[pid] = true
				run.skip(pid, st.err, st.elapsed)
			}
		}
	}
	if stats != nil {
		stats.TrajsSent = trajsSent
		stats.BytesSent = bytesSent
	}
	return perEdge, nil
}

// edgeSides resolves an edge's (source view, destination view,
// destination engine, flip) given its orientation. flip reports that the
// shipped trajectories are Q-side (so result pairs are (dstTraj, shipped)).
func (jv *joinViews) edgeSides(ed *edge) (src, dst side, dstEngine *Engine, flip bool) {
	if ed.dirTQ {
		return jv.left[ed.ti], jv.right[ed.qj], jv.other, false
	}
	return jv.right[ed.qj], jv.left[ed.ti], jv.e, true
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// edgeScratch holds what a local join fills and drops again: the flattened
// candidate pairs and the hits among them. Pooled: both are as long as the
// edge's candidate count, and a join has hundreds of edges to grow them
// from nothing on.
type edgeScratch struct {
	pairs []JoinPair
	hits  []JoinHit
}

var edgeScratchPool = sync.Pool{New: func() any { return new(edgeScratch) }}

// JoinEdge is the local join of one edge: it probes dst's trie with each
// shipped trajectory (whose precomputed metadata feeds its verifier),
// drops candidates masked by tombstones, pairs the shipped trajectory with
// dst's unindexed overlay members brute-force — the verification cascade
// prunes them like any candidate — and verifies the candidate pairs on the
// verification pool. collect receives the hits, in (shipped, probe) order
// at every parallelism; they are only valid during the call.
//
// slots is nil except when the edge joins a partition with itself: the
// shipped trajectories are then members of dst, slots[i] is shipped[i]'s
// slot, and only candidates at that slot or after it are kept, so each
// unordered pair of members — and each member with itself — is verified
// once. An overlay member's partners are then all in the overlay, and its
// trie probe is skipped.
//
// Cancellation is checked inside each trie probe and before every
// verification step. The returned funnel covers the edge: Considered is
// the (shipped, dst slot) pairs the trie filtered, TrieCands the candidate
// pairs probed, and the later stages the verification cascade over those.
func JoinEdge(ctx context.Context, m measure.Measure, dst *View, shipped []*traj.T, smeta []VerifyMeta, slots []int,
	tau float64, parallelism int, collect func(hits []JoinHit)) (ScanStats, error) {
	var st ScanStats
	sc := edgeScratchPool.Get().(*edgeScratch)
	defer edgeScratchPool.Put(sc)
	// Phase 1: sequential trie probes flatten the edge into candidate
	// pairs, with one verifier per shipped trajectory (the filter stage is
	// cheap; the DP-heavy cascade below is where the fan-out pays).
	start := time.Now()
	pairs, vs := sc.pairs[:0], make([]Verifier, len(shipped))
	for si, t := range shipped {
		from := 0
		if slots != nil {
			from = slots[si]
		}
		st.Funnel.Considered += int64(dst.Len() - from)
		before := len(pairs)
		if from < len(dst.Base) {
			idxs, err := dst.Index.SearchContext(ctx, t.Points, m, tau, nil)
			if err != nil {
				return st, err
			}
			for _, i := range idxs {
				if i >= from && dst.visible(i) {
					pairs = append(pairs, JoinPair{Shipped: si, Local: i})
				}
			}
		}
		for i := max(from, len(dst.Base)); i < dst.Len(); i++ {
			pairs = append(pairs, JoinPair{Shipped: si, Local: i})
		}
		if len(pairs) > before {
			vs[si].init(m, t.Points, tau, smeta[si])
		}
	}
	sc.pairs = pairs
	probed := time.Now()
	st.Probe = probed.Sub(start)
	// Phase 2: the verification cascade over the flat pair list, fanned
	// out across the verification pool. Hits come back in pairs order, so
	// the output is the nested sequential loops' byte for byte; the funnel
	// is a sum per stage, so it is order-independent too.
	hits, err := VerifyJoinPairs(ctx, pairs, vs, dst, parallelism, sc.hits[:0])
	st.Verify = time.Since(probed)
	var lengthPruned, coveragePruned int64
	for i := range vs {
		lengthPruned += vs[i].LengthPruned.Load()
		coveragePruned += vs[i].CoveragePruned.Load()
		st.Funnel.Verified += vs[i].Verified.Load()
		st.Funnel.Matched += vs[i].Accepted.Load()
	}
	st.Funnel.TrieCands = int64(len(pairs))
	st.Funnel.AfterLength = st.Funnel.TrieCands - lengthPruned
	st.Funnel.AfterCoverage = st.Funnel.AfterLength - coveragePruned
	if err != nil {
		return st, err
	}
	sc.hits = hits
	collect(hits)
	return st, nil
}
