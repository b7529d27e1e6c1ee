package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dita/internal/cluster"
	"dita/internal/geom"
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
	// Results is the answer count.
	Results int
	// LoadRatio is the cluster's max/min worker-time ratio after the join.
	LoadRatio float64
	// Funnel is the join's pruning funnel: Partitions counts possible
	// partition pairs, Relevant the bi-graph edges surviving partition-
	// level pruning, Considered the candidate pairs the shipped
	// trajectories were probed against (|shipped|·|dst| per edge), and the
	// remaining stages the verification cascade over candidate pairs.
	Funnel obs.Funnel
	// Trace, when non-nil, receives spans for bigraph construction,
	// orientation, balancing, selection, per-edge local joins, and merge.
	Trace *obs.Trace
}

// edge is one bi-graph edge between partition Ti (left, index into
// e.parts) and Qj (right, index into other.parts), with its two weight
// pairs (Section 6.2).
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
}

// Join computes the distributed similarity join T ⋈_τ Q between two built
// engines sharing a cluster (Algorithm 3). Both sides must use the same
// measure. stats may be nil. A panic in an edge task propagates (legacy
// crash semantics); lifecycle-aware callers use JoinContext.
func (e *Engine) Join(other *Engine, tau float64, opts JoinOptions, stats *JoinStats) []Pair {
	out, rep, err := e.JoinPartialContext(context.Background(), other, tau, opts, stats)
	if err != nil {
		panic(err) // unreachable with a background context
	}
	if rep.Partial() {
		panic(rep.err("join"))
	}
	return out
}

// JoinContext is Join with query-lifecycle control: the context is checked
// while building and orienting the bi-graph, during trajectory selection,
// and between local-join verification steps; a panic on any edge task is
// isolated and surfaces as an error instead of crashing the process.
func (e *Engine) JoinContext(ctx context.Context, other *Engine, tau float64, opts JoinOptions, stats *JoinStats) ([]Pair, error) {
	out, rep, err := e.JoinPartialContext(ctx, other, tau, opts, stats)
	if err != nil {
		return nil, err
	}
	if rep.Partial() {
		return nil, rep.err("join")
	}
	return out, nil
}

// JoinPartialContext is JoinContext plus partial-result semantics: an
// edge whose selection or local-join task panics is dropped and its
// destination partition recorded in the SkipReport, while pairs from the
// surviving edges are still returned. Cancellation is never partial: a
// done context returns ctx.Err().
func (e *Engine) JoinPartialContext(ctx context.Context, other *Engine, tau float64, opts JoinOptions, stats *JoinStats) ([]Pair, *SkipReport, error) {
	report := &SkipReport{}
	unlock := rlockPair(e, other)
	defer unlock()
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
	var tr *obs.Trace
	if stats != nil {
		tr = stats.Trace
	}
	var qStart time.Time
	if tr != nil || e.met != nil {
		qStart = time.Now()
	}
	planDone := tr.StartSpan("bigraph", -1)
	edges, err := e.buildBigraph(ctx, other, tau, opts)
	planDone(err)
	if err != nil {
		return nil, report, err
	}
	funnel := obs.Funnel{
		Partitions: int64(len(e.parts)) * int64(len(other.parts)),
		Relevant:   int64(len(edges)),
	}
	if tr != nil {
		tr.Add(obs.Span{Name: "global-prune", Partition: -1,
			Funnel: &obs.Funnel{Partitions: funnel.Partitions, Relevant: funnel.Relevant}})
	}
	defer func() {
		if stats != nil {
			stats.Funnel = funnel
			stats.CandPairs = int(funnel.TrieCands)
		}
		if e.met != nil {
			e.met.joins.Inc()
			e.met.joinLatency.Observe(time.Since(qStart).Microseconds())
			e.met.joinFunnel.Record(funnel)
		}
	}()
	if stats != nil {
		stats.Edges = len(edges)
	}
	if len(edges) == 0 {
		return nil, report, nil
	}
	orientDone := tr.StartSpan("orient", -1)
	flips, err := orient(ctx, edges, e, other, opts)
	orientDone(err)
	if err != nil {
		return nil, report, err
	}
	divisions := balance(edges, e, other, opts)
	if stats != nil {
		stats.Oriented = flips
		stats.Divisions = divisions
	}
	pairs, err := e.executeJoin(ctx, other, tau, edges, stats, tr, &funnel, report)
	if err != nil {
		return nil, report, err
	}
	if stats != nil {
		stats.Results = len(pairs)
		stats.LoadRatio = e.cl.LoadRatio()
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].T.ID != pairs[b].T.ID {
			return pairs[a].T.ID < pairs[b].T.ID
		}
		return pairs[a].Q.ID < pairs[b].Q.ID
	})
	return pairs, report, nil
}

// buildBigraph finds candidate partition pairs and estimates edge weights
// by sampling (Section 6.2). Cancellation is checked per candidate pair
// (weight estimation runs trie searches, the expensive part).
func (e *Engine) buildBigraph(ctx context.Context, other *Engine, tau float64, opts JoinOptions) ([]*edge, error) {
	m := e.opts.Measure
	anchored := m.AlignsEndpoints()
	rng := rand.New(rand.NewSource(opts.Seed))
	var edges []*edge
	for ti, pt := range e.parts {
		if pt.retired {
			continue
		}
		for qj, pq := range other.parts {
			if pq.retired {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if anchored {
				// Partition-level pruning: the cheapest possible pair
				// between the partitions must be within τ.
				df := pt.MBRf.MinDistMBR(pq.MBRf)
				dl := pt.MBRl.MinDistMBR(pq.MBRl)
				prune := false
				switch m.Accumulation() {
				case measure.AccumMax:
					prune = df > tau || dl > tau
				default:
					prune = df+dl > tau
				}
				if prune {
					continue
				}
			}
			ed := &edge{ti: ti, qj: qj}
			e.estimateEdge(other, ed, tau, opts, rng)
			edges = append(edges, ed)
		}
	}
	return edges, nil
}

// estimateEdge samples both partitions to estimate trans and comp for both
// orientations, scaled up by the inverse sample rate.
func (e *Engine) estimateEdge(other *Engine, ed *edge, tau float64, opts JoinOptions, rng *rand.Rand) {
	pt := e.parts[ed.ti]
	pq := other.parts[ed.qj]
	ed.transTQ, ed.compTQ = estimateDirection(pt, pq, other, tau, opts.SampleRate, rng)
	ed.transQT, ed.compQT = estimateDirection(pq, pt, e, tau, opts.SampleRate, rng)
}

// estimateDirection estimates sending src's trajectories to dst: trans is
// the expected bytes shipped (trajectories of src with candidates in dst),
// comp the expected candidate pairs produced by dst's trie.
func estimateDirection(src, dst *Partition, dstEngine *Engine, tau float64, rate float64, rng *rand.Rand) (trans, comp float64) {
	n := len(src.Trajs)
	k := int(float64(n)*rate + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	scale := float64(n) / float64(k)
	for s := 0; s < k; s++ {
		t := src.Trajs[rng.Intn(n)]
		if !dstEngine.trajRelevantToPartition(t, dst, tau) {
			continue
		}
		trans += float64(t.Bytes()) * scale
		cands := dst.Index.Search(t.Points, dstEngine.opts.Measure, tau, nil)
		comp += float64(len(cands)) * scale
	}
	return trans, comp
}

// trajRelevantToPartition is the per-trajectory global-index check used
// both for weight estimation and for the shuffle itself ("we only send
// the trajectory T ∈ Ti that has candidates in Qj").
func (e *Engine) trajRelevantToPartition(t *traj.T, p *Partition, tau float64) bool {
	return TrajRelevant(e.opts.Measure, t.Points, p.MBRf, p.MBRl, tau)
}

// TrajRelevant reports whether a trajectory may have answers in a
// partition described by its first/last-point MBRs (Section 5.2's global
// pruning, generalized per measure). It is defined as the partition's
// lower bound being within τ, so threshold pruning and the best-first kNN
// visit order share one bound. Exported for the network-mode worker.
func TrajRelevant(m measure.Measure, q []geom.Point, mbrF, mbrL geom.MBR, tau float64) bool {
	return PartitionLowerBound(m, q, mbrF, mbrL) <= tau
}

// orient chooses edge directions to minimize the maximum per-partition
// total cost TC = λ·NC + CC (Section 6.2). The problem is NP-hard (graph
// orientation); the greedy algorithm initializes each edge to its locally
// cheaper direction and then repeatedly flips the best edge at the
// current argmax partition. Returns the number of flips. Cancellation is
// checked once per greedy iteration (each iteration scans all edges at
// the argmax node — O(edges²) total in the worst case).
func orient(ctx context.Context, edges []*edge, e, other *Engine, opts JoinOptions) (int, error) {
	λ := opts.Lambda
	// Node cost arrays: T partitions then Q partitions.
	nT := len(e.parts)
	tc := make([]float64, nT+len(other.parts))
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
func balance(edges []*edge, e, other *Engine, opts JoinOptions) int {
	// Default execution worker: the receiving partition's worker.
	for _, ed := range edges {
		if ed.dirTQ {
			ed.execWorker = other.parts[ed.qj].Worker
		} else {
			ed.execWorker = e.parts[ed.ti].Worker
		}
	}
	if opts.DisableDivision {
		return 0
	}
	λ := opts.Lambda
	// Receiving-side cost per partition node (the execution workload).
	nT := len(e.parts)
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
	costs := make([]float64, nT+len(other.parts))
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
	W := e.cl.Workers()
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
// worker and probe the destination's trie there. An edge whose task
// panics is recorded in report (attributed to its destination partition)
// and the other edges proceed.
func (e *Engine) executeJoin(ctx context.Context, other *Engine, tau float64, edges []*edge, stats *JoinStats, tr *obs.Trace, funnel *obs.Funnel, report *SkipReport) ([]Pair, error) {
	var mu sync.Mutex
	var pairs []Pair
	trajsSent, bytesSent := 0, 0
	timed := tr != nil || e.met != nil
	tasks := make([]cluster.Task, 0, len(edges))
	type edgeState struct {
		ed      *edge
		shipped []*traj.T    // selected source trajectories (base + overlay)
		smeta   []VerifyMeta // their verification metadata
		funnel  obs.Funnel
		elapsed time.Duration
		err     error
	}
	states := make([]*edgeState, len(edges))
	for i, ed := range edges {
		states[i] = &edgeState{ed: ed}
	}
	selectDone := tr.StartSpan("select", -1)
	for _, st := range states {
		st := st
		src, dst, dstEngine, _ := e.edgeSides(other, st.ed)
		tasks = append(tasks, cluster.Task{Worker: src.Worker, Fn: func() {
			defer func() {
				if r := recover(); r != nil {
					st.err = fmt.Errorf("panic: %v", r)
				}
			}()
			overlay := src.hasOverlay()
			pick := func(t *traj.T, m VerifyMeta) {
				if dstEngine.trajRelevantToPartition(t, dst, tau) {
					st.shipped = append(st.shipped, t)
					st.smeta = append(st.smeta, m)
				}
			}
			for i, t := range src.Trajs {
				if st.err = ctx.Err(); st.err != nil {
					return
				}
				if overlay && src.maskedBase(t.ID) {
					continue
				}
				pick(t, src.meta[i])
			}
			if !overlay {
				return
			}
			if src.frozen != nil {
				for i, t := range src.frozen.Live {
					if !src.tomb[t.ID] {
						pick(t, src.frozen.Meta[i])
					}
				}
			}
			if src.delta != nil {
				for i, t := range src.delta.Live {
					pick(t, src.delta.Meta[i])
				}
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
		st := st
		if st.err != nil || len(st.shipped) == 0 {
			continue
		}
		src, dst, dstEngine, flip := e.edgeSides(other, st.ed)
		bytes := 0
		for _, t := range st.shipped {
			bytes += t.Bytes()
		}
		e.cl.Transfer(src.Worker, st.ed.execWorker, bytes)
		trajsSent += len(st.shipped)
		bytesSent += bytes
		if st.ed.execWorker != dst.Worker {
			key := [2]int{boolToInt(flip)*1_000_000 + dst.ID, st.ed.execWorker}
			if !replicated[key] {
				replicated[key] = true
				e.cl.Transfer(dst.Worker, st.ed.execWorker, dst.Bytes()+dst.Index.SizeBytes())
			}
		}
		tasks = append(tasks, cluster.Task{Worker: st.ed.execWorker, Fn: func() {
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
			local, f, err := localJoin(ctx, dstEngine, dst, st.shipped, st.smeta, tau, flip)
			st.funnel = f
			if err != nil {
				st.err = err
				return
			}
			mu.Lock()
			pairs = append(pairs, local...)
			mu.Unlock()
		}})
	}
	if err := e.cl.RunContext(ctx, tasks); err != nil {
		return nil, err
	}
	// Fold edge failures into the skip report, one entry per destination
	// partition (several edges may target the same partition).
	seen := map[int]bool{}
	for _, st := range states {
		_, dst, _, _ := e.edgeSides(other, st.ed)
		if st.err == nil {
			funnel.Merge(st.funnel)
			if tr != nil {
				f := st.funnel
				tr.Add(obs.Span{Name: "local-join", Partition: dst.ID,
					Duration: st.elapsed, Funnel: &f})
			}
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		class := obs.Classify(st.err)
		if tr != nil {
			tr.Add(obs.Span{Name: "local-join", Partition: dst.ID,
				Duration: st.elapsed, Err: st.err.Error(), Class: class})
		}
		if !seen[dst.ID] {
			seen[dst.ID] = true
			report.Skipped = append(report.Skipped, SkippedPartition{
				Partition: dst.ID, Err: st.err.Error(), Elapsed: st.elapsed, Class: class})
			e.met.recordSkip(class)
		}
	}
	if stats != nil {
		stats.TrajsSent = trajsSent
		stats.BytesSent = bytesSent
	}
	return pairs, nil
}

// edgeSides resolves an edge's (source partition, destination partition,
// destination engine, flip) given its orientation. flip reports that the
// shipped trajectories are Q-side (so result pairs are (dstTraj, shipped)).
func (e *Engine) edgeSides(other *Engine, ed *edge) (src, dst *Partition, dstEngine *Engine, flip bool) {
	if ed.dirTQ {
		return e.parts[ed.ti], other.parts[ed.qj], other, false
	}
	return other.parts[ed.qj], e.parts[ed.ti], e, true
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// localJoin probes dst's trie with each shipped trajectory (whose
// precomputed metadata feeds the verifier) and verifies candidates.
// flip=false: shipped are T-side, dst holds Q-side. When dst carries an
// ingest overlay, trie candidates masked by tombstones are dropped and
// the overlay's live members are paired with every shipped trajectory
// brute-force — the verification cascade prunes them like any candidate.
// Cancellation is checked inside each trie probe and before every
// verification step. The returned funnel covers the edge: Considered is
// |shipped|·|visible dst| pairs, TrieCands the candidate pairs probed,
// and the later stages the verification cascade over those pairs.
func localJoin(ctx context.Context, dstEngine *Engine, dst *Partition, shipped []*traj.T, smeta []VerifyMeta, tau float64, flip bool) ([]Pair, obs.Funnel, error) {
	m := dstEngine.opts.Measure
	// The destination view: base followed by the overlay's visible live
	// members (indices past len(dst.Trajs) address the overlay).
	dstTrajs, dstMeta := dst.Trajs, dst.meta
	var overlayIdx []int
	overlay := dst.hasOverlay()
	if overlay {
		dstTrajs = append([]*traj.T{}, dst.Trajs...)
		dstMeta = append([]VerifyMeta{}, dst.meta...)
		if dst.frozen != nil {
			for i, t := range dst.frozen.Live {
				if !dst.tomb[t.ID] {
					overlayIdx = append(overlayIdx, len(dstTrajs))
					dstTrajs = append(dstTrajs, t)
					dstMeta = append(dstMeta, dst.frozen.Meta[i])
				}
			}
		}
		if dst.delta != nil {
			for i, t := range dst.delta.Live {
				overlayIdx = append(overlayIdx, len(dstTrajs))
				dstTrajs = append(dstTrajs, t)
				dstMeta = append(dstMeta, dst.delta.Meta[i])
			}
		}
	}
	f := obs.Funnel{Considered: int64(len(shipped)) * int64(len(dstTrajs))}
	// Phase 1: sequential trie probes flatten the edge into candidate
	// pairs, with one verifier per shipped trajectory (the filter stage is
	// cheap; the DP-heavy cascade below is where the fan-out pays).
	var (
		pairs []JoinPair
		vs    []*Verifier
		ts    []*traj.T
		nCand []int
	)
	for si, t := range shipped {
		idxs, err := dst.Index.SearchContext(ctx, t.Points, m, tau, nil)
		if err != nil {
			return nil, f, err
		}
		if overlay {
			kept := idxs[:0]
			for _, i := range idxs {
				if !dst.maskedBase(dst.Trajs[i].ID) {
					kept = append(kept, i)
				}
			}
			idxs = append(kept, overlayIdx...)
		}
		if len(idxs) == 0 {
			continue
		}
		vi := len(vs)
		vs = append(vs, NewVerifierFromMeta(m, t.Points, tau, smeta[si]))
		ts = append(ts, t)
		nCand = append(nCand, len(idxs))
		for _, i := range idxs {
			pairs = append(pairs, JoinPair{Shipped: vi, Local: i})
		}
	}
	// Phase 2: the verification cascade over the flat pair list, fanned
	// out across the verification pool. Hits come back in pairs order, so
	// the output matches the old nested sequential loops byte for byte;
	// the funnel merge is a sum per stage, so it is order-independent too.
	hits, err := VerifyJoinPairs(ctx, pairs, vs, dstTrajs, dstMeta, dstEngine.opts.VerifyParallelism)
	for vi, v := range vs {
		vf := v.Funnel(0, nCand[vi])
		vf.Considered = 0
		f.Merge(vf)
	}
	if err != nil {
		return nil, f, err
	}
	var out []Pair
	for _, h := range hits {
		t, d := ts[h.Pair.Shipped], h.Pair.Local
		if flip {
			out = append(out, Pair{T: dstTrajs[d], Q: t, Distance: h.Distance})
		} else {
			out = append(out, Pair{T: t, Q: dstTrajs[d], Distance: h.Distance})
		}
	}
	return out, f, nil
}
