// Package trie implements DITA's local index (Section 4.2.3): a trie-like
// multi-level structure over each partition's trajectories.
//
// Every trajectory T contributes a sequence of indexing points
// T_I = (t1, tm, tP1, ..., tPK) — its first point, last point, and K pivot
// points. Level 1 of the trie groups trajectories by their first point into
// NL STR tiles, level 2 by the last point, and levels 3..K+2 by successive
// pivot points; each node stores the MBR of its group's level point, and
// leaves store the trajectories themselves (a clustered index, which the
// paper contrasts with DFT's non-clustered segment index).
//
// Search descends the trie accumulating per-level lower bounds
// (Section 5.3): the remaining threshold shrinks level by level for
// sum-accumulating measures (DTW, ERP), stays fixed for max-accumulating
// ones (Fréchet), and counts edits for EDR/LCSS. The ordered-suffix
// optimization of Lemma 5.1 narrows the query suffix a pivot may align
// with for endpoint-anchored measures.
package trie

import (
	"context"
	"math"
	"slices"
	"unsafe"

	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/pivot"
	"dita/internal/str"
	"dita/internal/traj"
)

// Config parameterizes trie construction.
type Config struct {
	// K is the number of pivot points per trajectory (Table 3: 2..6).
	K int
	// NLAlign is the fanout of the two align levels (first/last point).
	// The paper sets a larger fanout there ("we usually set a larger NL"
	// at the upper levels).
	NLAlign int
	// NLPivot is the fanout of the K pivot levels.
	NLPivot int
	// MinNode stops splitting when a group has at most this many
	// trajectories (the paper stops at 16).
	MinNode int
	// Strategy selects pivot points.
	Strategy pivot.Strategy
}

// DefaultConfig mirrors the paper's defaults scaled to laptop-size
// partitions: K=4, NL=32 on align levels, NL=8 on pivot levels, stop at 16.
func DefaultConfig() Config {
	return Config{K: 4, NLAlign: 32, NLPivot: 8, MinNode: 16, Strategy: pivot.Neighbor}
}

// maxK caps Config.K. A trie is at most K+2 levels deep and every walk of it
// recurses once a level, so DecodeBinary refuses a larger K instead of taking
// an encoding's word for how deep it may nest.
const maxK = 1 << 10

func (c Config) sanitized() Config {
	c.K = min(max(c.K, 0), maxK)
	if c.NLAlign < 2 {
		c.NLAlign = 2
	}
	if c.NLPivot < 2 {
		c.NLPivot = 2
	}
	if c.MinNode < 1 {
		c.MinNode = 1
	}
	return c
}

// node is one entry of a Trie's node array, which holds the tree in preorder;
// the node's MBR is the entry of Trie.mbrs at the same index. level is the
// indexing-point position that MBR describes: 0 = first point, 1 = last
// point, 2+i = i-th pivot. The root has level -1 and an empty MBR.
//
// An internal node's children are the entries between it and link: the first
// child is the next entry, and a child's next sibling is the entry after that
// child's subtree (Trie.after). A leaf's members are Trie.leaves[link :
// link+n]. Twelve bytes beside a 32-byte MBR, no pointer: the collector never
// scans either array.
type node struct {
	level int32
	link  uint32 // internal: index one past the subtree; leaf: offset into Trie.leaves
	// n is a leaf's member count, and negative on an internal node: ^n then
	// indexes Trie.envs. A leaf has no envelope of its own — a bucket of one
	// or two members is bounded by the caller's per-trajectory MBR instead.
	n int32
}

func (n node) isLeaf() bool { return n.n >= 0 }

// Trie is the immutable local index of one partition: four pointer-free
// arrays beside the members they index.
type Trie struct {
	cfg Config
	// Trajs holds the partition's trajectories, aligned with the indices
	// stored in leaves (the clustered-index property).
	Trajs  []*traj.T
	nodes  []node     // preorder; nodes[0] is the root
	mbrs   []geom.MBR // mbrs[i] is node i's
	leaves []uint32   // every leaf's members (indices into Trajs), leaf after leaf in preorder
	// envs holds, per internal node in preorder, the envelope of its subtree:
	// the MBR of every point of every member below it. Derived from Trajs by
	// fillEnvelopes after Build and after DecodeBinary; never serialized.
	envs []geom.MBR
}

// after returns the index of the entry that follows node i's subtree.
func (t *Trie) after(i uint32) uint32 {
	if n := t.nodes[i]; !n.isLeaf() {
		return n.link
	}
	return i + 1
}

// members returns the member indices of leaf n.
func (t *Trie) members(n node) []uint32 { return t.leaves[n.link : n.link+uint32(n.n)] }

// env returns internal node n's envelope.
func (t *Trie) env(n node) *geom.MBR { return &t.envs[^n.n] }

// Build constructs a trie over the trajectories. The slice is retained.
//
// A member's indexing points (first, last, K pivots) decide which group it
// falls into at each level and nothing else: no descent reads them, so they
// are not part of the Trie, its encoding or a snapshot. The first and last
// point are read off the trajectory; pivots are selected only for members of
// a group still larger than MinNode after both align levels — with the
// default fan-out (36 × 36 STR tiles) and MinNode 16, none below ~20 k
// members a partition — and memoised in a table that dies with this call.
func Build(trajs []*traj.T, cfg Config) *Trie {
	t := &Trie{cfg: cfg.sanitized(), Trajs: trajs, leaves: make([]uint32, 0, len(trajs))}
	var ip [][]geom.Point // by trajectory index; nil until a pivot level asks
	// point returns member i's level-th indexing point, or false when its
	// sequence is exhausted (fewer interior points than pivot levels above
	// this one). Every member has a first and a last point, so that can only
	// happen on a pivot level.
	point := func(i, level int) (geom.Point, bool) {
		switch level {
		case 0:
			return trajs[i].First(), true
		case 1:
			return trajs[i].Last(), true
		}
		if ip == nil {
			ip = make([][]geom.Point, len(trajs))
		}
		if ip[i] == nil {
			ip[i] = pivot.IndexingPoints(trajs[i].Points, t.cfg.K, t.cfg.Strategy)
		}
		if level >= len(ip[i]) {
			return geom.Point{}, false
		}
		return ip[i][level], true
	}
	all := make([]int, len(trajs))
	for i := range all {
		all[i] = i
	}
	t.build(all, 0, geom.EmptyMBR(), point)
	// The arrays stay for the partition's life: no spare capacity.
	t.nodes, t.mbrs = slices.Clone(t.nodes), slices.Clone(t.mbrs)
	t.fillEnvelopes()
	return t
}

// fillEnvelopes numbers the internal nodes and derives each one's envelope
// from Trajs. Going backwards through a preorder array meets every child
// before its parent; a leaf extends its parent's box in place rather than
// building one of its own. This pass reads every stored point on every build
// and cold start.
func (t *Trie) fillEnvelopes() {
	internal := int32(0)
	for i := range t.nodes {
		if n := &t.nodes[i]; !n.isLeaf() {
			n.n = ^internal
			internal++
		}
	}
	t.envs = make([]geom.MBR, internal)
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.isLeaf() {
			continue
		}
		own := geom.EmptyMBR()
		for ci := uint32(i) + 1; ci < n.link; ci = t.after(ci) {
			if c := t.nodes[ci]; !c.isLeaf() {
				own = own.Union(*t.env(c))
			} else {
				for _, m := range t.members(c) {
					own = own.ExtendAll(t.Trajs[m].Points)
				}
			}
		}
		*t.env(n) = own
	}
}

// add appends one node and returns its index; an internal node's link is set
// once its subtree is in, its n by fillEnvelopes.
func (t *Trie) add(n node, mbr geom.MBR) int {
	t.nodes, t.mbrs = append(t.nodes, n), append(t.mbrs, mbr)
	return len(t.nodes) - 1
}

// leaf appends a leaf holding idxs: its node, then its members.
func (t *Trie) leaf(level int, mbr geom.MBR, idxs []int) {
	t.add(node{level: int32(level), link: uint32(len(t.leaves)), n: int32(len(idxs))}, mbr)
	for _, i := range idxs {
		t.leaves = append(t.leaves, uint32(i))
	}
}

// build appends the subtree over the given trajectory indices, grouped by
// their level-th indexing point, which point supplies; mbr bounds the point
// that put them in one group a level up.
func (t *Trie) build(idxs []int, level int, mbr geom.MBR, point func(i, level int) (geom.Point, bool)) {
	if level >= t.cfg.K+2 || len(idxs) <= t.cfg.MinNode {
		t.leaf(level-1, mbr, idxs)
		return
	}
	self := t.add(node{level: int32(level - 1), n: -1}, mbr)
	// Trajectories whose indexing sequence is exhausted (shorter than
	// K+2 points) become a leaf child; the rest are STR-tiled by their
	// level point.
	var exhausted []int
	alive := make([]int, 0, len(idxs))
	keys := make([]geom.Point, 0, len(idxs))
	for _, i := range idxs {
		if p, ok := point(i, level); ok {
			alive = append(alive, i)
			keys = append(keys, p)
		} else {
			exhausted = append(exhausted, i)
		}
	}
	fanout := t.cfg.NLPivot
	if level < 2 {
		fanout = t.cfg.NLAlign
	}
	if len(exhausted) > 0 {
		// The exhausted leaf inherits the parent's level semantics but has
		// no level point; its empty MBR is never distance-tested (see
		// search), so it participates as an always-candidate bucket.
		t.leaf(level-1, geom.EmptyMBR(), exhausted)
	}
	if len(alive) > 0 {
		tiles := str.Tile(keys, fanout)
		for _, tile := range tiles {
			group := make([]int, len(tile))
			m := geom.EmptyMBR()
			for j, k := range tile {
				group[j] = alive[k]
				m = m.Extend(keys[k])
			}
			t.build(group, level+1, m, point)
		}
	}
	t.nodes[self].link = uint32(len(t.nodes))
}

// NodeCount returns the number of trie nodes (Appendix B sizing).
func (t *Trie) NodeCount() int { return len(t.nodes) }

// LeafIndexes returns every trajectory index referenced by a leaf, in
// preorder. Exposed for integrity checks on deserialized tries: each
// index must address the trajectory slice the trie was decoded against.
func (t *Trie) LeafIndexes() []int {
	out := make([]int, len(t.leaves))
	for i, m := range t.leaves {
		out[i] = int(m)
	}
	return out
}

// SizeBytes is the index footprint excluding trajectory data — exactly: the
// four arrays are all a trie holds.
func (t *Trie) SizeBytes() int {
	const nodeSize, mbrSize = int(unsafe.Sizeof(node{})), int(unsafe.Sizeof(geom.MBR{}))
	return nodeSize*len(t.nodes) + mbrSize*(len(t.mbrs)+len(t.envs)) + 4*len(t.leaves)
}

// Stats reports search-cost counters for one query (Appendix C compares
// candidate counts across indexes).
type Stats struct {
	// NodesVisited counts trie nodes whose MBR was distance-tested.
	NodesVisited int
	// Pruned counts subtrees cut because their level lower bound exceeded
	// the remaining threshold budget — the trie's direct pruning power
	// (NodesVisited = Pruned + descended).
	Pruned int
	// Candidates counts trajectories surviving the filter.
	Candidates int
}

// Search returns the indices (into Trajs) of candidate trajectories for
// query q under the measure with threshold tau — a superset of the true
// result set, to be verified by the caller. stats may be nil.
func (t *Trie) Search(q []geom.Point, m measure.Measure, tau float64, stats *Stats) []int {
	out, _ := t.SearchContext(context.Background(), q, m, tau, stats)
	return out
}

// SearchContext is Search with cooperative cancellation: the trie descent
// checks the context every ctxCheckEvery node visits and aborts with
// ctx.Err(), so a runaway query (huge τ over a deep trie) cannot pin a
// worker past its deadline. The partial candidate list accumulated before
// the abort is discarded.
func (t *Trie) SearchContext(ctx context.Context, q []geom.Point, m measure.Measure, tau float64, stats *Stats) ([]int, error) {
	if len(q) == 0 || len(t.nodes) == 0 {
		return nil, ctx.Err()
	}
	s := newSearcher(ctx, t, q, m, tau, stats)
	var out []int
	out = s.descend(0, tau, 0, 0, out)
	if s.err != nil {
		return nil, s.err
	}
	if stats != nil {
		stats.Candidates = len(out)
	}
	return out, nil
}

// Cand is one candidate of a bound-aware trie search: a trajectory index
// plus the accumulated per-level lower bound of the path that emitted it
// (a sound lower bound on the true distance under the trie's level
// semantics — summed for DTW/ERP, maxed for Fréchet, an edit count for
// EDR/LCSS; 0 when the trajectory sat in an exhausted always-candidate
// bucket at the root).
type Cand struct {
	Idx int
	LB  float64
}

// SearchBoundsContext is SearchContext returning each candidate with the
// lower bound its trie path accumulated, so a best-first caller can
// verify candidates in bound order and stop at the first bound exceeding
// its live threshold. tau may be +Inf (no pruning: every trajectory is a
// candidate at its path bound) — the descent is pure float comparison and
// handles an infinite budget exactly.
func (t *Trie) SearchBoundsContext(ctx context.Context, q []geom.Point, m measure.Measure, tau float64, stats *Stats) ([]Cand, error) {
	if len(q) == 0 || len(t.nodes) == 0 {
		return nil, ctx.Err()
	}
	s := newSearcher(ctx, t, q, m, tau, stats)
	s.bounds = true
	s.descend(0, tau, 0, 0, nil)
	if s.err != nil {
		return nil, s.err
	}
	if stats != nil {
		stats.Candidates = len(s.bcands)
	}
	return s.bcands, nil
}

func newSearcher(ctx context.Context, t *Trie, q []geom.Point, m measure.Measure, tau float64, stats *Stats) *searcher {
	s := &searcher{t: t, q: q, m: m, tau: tau, stats: stats, ctx: ctx}
	s.gapPt, s.hasGap = m.GapPoint()
	s.anchored = m.AlignsEndpoints()
	s.accum = m.Accumulation()
	s.eps = m.Epsilon()
	return s
}

// ctxCheckEvery is the node-visit stride between context checks during
// descent: frequent enough that cancellation lands within microseconds,
// sparse enough that the atomic load cost is invisible.
const ctxCheckEvery = 64

type searcher struct {
	t        *Trie
	q        []geom.Point
	m        measure.Measure
	tau      float64
	stats    *Stats
	anchored bool
	accum    measure.Accumulation
	eps      float64
	gapPt    geom.Point
	hasGap   bool

	ctx    context.Context
	visits int
	err    error

	// bounds mode: emit (index, accumulated lower bound) pairs instead of
	// bare indices. acc threads the path's level-bound accumulation down
	// the descent (sum / max / edit count, mirroring how rem is consumed).
	bounds bool
	bcands []Cand
}

// emit records the candidates of one leaf at the given path lower bound.
func (s *searcher) emit(idxs []uint32, lb float64, out []int) []int {
	for _, i := range idxs {
		if s.bounds {
			s.bcands = append(s.bcands, Cand{Idx: int(i), LB: lb})
		} else {
			out = append(out, int(i))
		}
	}
	return out
}

// descend visits the children of node i; rem is the remaining threshold
// budget (for AccumSum), the full tau (AccumMax), or the remaining edit
// budget (AccumEdit). suf is the query suffix start for the Lemma 5.1
// optimization. acc is the lower bound accumulated along the path so far
// (only consumed in bounds mode).
func (s *searcher) descend(i uint32, rem float64, suf int, acc float64, out []int) []int {
	if s.err != nil {
		return out
	}
	if s.visits++; s.visits%ctxCheckEvery == 0 {
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return out
		}
	}
	t := s.t
	n := t.nodes[i]
	if n.isLeaf() {
		return s.emit(t.members(n), acc, out)
	}
	for ci := i + 1; ci < n.link; ci = t.after(ci) {
		if s.err != nil {
			return out
		}
		if c := t.nodes[ci]; c.isLeaf() && t.mbrs[ci].IsEmpty() {
			// Exhausted bucket: no level point to test; all members stay
			// candidates at the bound accumulated so far.
			out = s.emit(t.members(c), acc, out)
			continue
		}
		if s.stats != nil {
			s.stats.NodesVisited++
		}
		out = s.visitChild(ci, rem, suf, acc, out)
	}
	return out
}

// visitChild applies the level-appropriate lower bound to child ci and
// recurses when it survives.
func (s *searcher) visitChild(ci uint32, rem float64, suf int, acc float64, out []int) []int {
	q, level, mbr := s.q, s.t.nodes[ci].level, s.t.mbrs[ci]
	switch s.accum {
	case measure.AccumSum:
		var d float64
		nsuf := suf
		if s.anchored && level == 0 {
			d = mbr.MinDist(q[0])
		} else if s.anchored && level == 1 {
			d = mbr.MinDist(q[len(q)-1])
		} else {
			d, nsuf = s.pivotMinDist(mbr, rem, suf)
		}
		if d > rem {
			if s.stats != nil {
				s.stats.Pruned++
			}
			return out
		}
		return s.descend(ci, rem-d, nsuf, acc+d, out)

	case measure.AccumMax:
		var d float64
		nsuf := suf
		if s.anchored && level == 0 {
			d = mbr.MinDist(q[0])
		} else if s.anchored && level == 1 {
			d = mbr.MinDist(q[len(q)-1])
		} else {
			d, nsuf = s.pivotMinDist(mbr, rem, suf)
		}
		if d > s.tau {
			if s.stats != nil {
				s.stats.Pruned++
			}
			return out
		}
		// Max semantics: the budget is not consumed (Appendix A).
		return s.descend(ci, rem, nsuf, math.Max(acc, d), out)

	default: // AccumEdit
		// Every level (endpoints included — they may be edited away) is
		// matched against the whole query; a level farther than ε from
		// every query point costs one edit.
		d, _ := s.pivotMinDist(mbr, math.Inf(1), 0)
		nrem := rem
		nacc := acc
		if d > s.eps {
			nrem = rem - 1
			nacc = acc + 1
			if nrem < 0 {
				if s.stats != nil {
					s.stats.Pruned++
				}
				return out
			}
		}
		return s.descend(ci, nrem, 0, nacc, out)
	}
}

// pivotMinDist returns the minimum distance from the query suffix q[suf:]
// to the MBR, honoring the measure's gap point, plus the advanced suffix
// start per Lemma 5.1 (only advanced for endpoint-anchored measures; the
// ordering argument needs anchored, monotone alignments).
func (s *searcher) pivotMinDist(m geom.MBR, rem float64, suf int) (float64, int) {
	q := s.q
	best := math.Inf(1)
	nsuf := suf
	advancing := s.anchored
	for i := suf; i < len(q); i++ {
		d := m.MinDist(q[i])
		if advancing && d > rem {
			if i == nsuf {
				// Still in the prefix of points that cannot align with
				// this or any later pivot: drop them permanently.
				nsuf = i + 1
			}
			continue
		}
		advancing = false
		if d < best {
			best = d
			if best == 0 {
				break
			}
		}
	}
	if s.hasGap {
		if d := m.MinDist(s.gapPt); d < best {
			best = d
		}
	}
	return best, nsuf
}

// Candidates returns every trajectory index (an unfiltered scan), used by
// tests as the trivial baseline.
func (t *Trie) Candidates() []int {
	out := make([]int, len(t.Trajs))
	for i := range out {
		out[i] = i
	}
	return out
}

// Depth returns the maximum node depth (root = 0).
func (t *Trie) Depth() int {
	depth := 0
	var open []uint32 // links of the internal nodes the current entry lies below
	for i := range t.nodes {
		for len(open) > 0 && open[len(open)-1] <= uint32(i) {
			open = open[:len(open)-1]
		}
		depth = max(depth, len(open))
		if n := &t.nodes[i]; !n.isLeaf() {
			open = append(open, n.link)
		}
	}
	return depth
}
