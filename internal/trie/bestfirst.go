package trie

import (
	"context"
	"math"

	"dita/internal/geom"
	"dita/internal/measure"
)

// BestFirst is an incremental best-first traversal of one trie: Next yields
// leaf buckets in ascending lower bound, and takes the caller's live
// threshold on every call, so a top-k scan that tightens τ while it verifies
// never descends — let alone sorts — the part of the trie its final τ rules
// out.
//
// A frontier node is ordered and pruned by the larger of two bounds. The
// path bound is the one SearchBoundsContext accumulates (the same level
// distances, Lemma 5.1 suffix advance and sum/max/edit accumulation) and
// sees K+2 indexing points of a member. The envelope bound sees all of
// them: an internal node holds the MBR of every point of every member
// below it, and under a measure that matches every query point to some
// member point (SupportsCoverageFilter) each qᵢ costs at least
// MinDist(qᵢ, envelope) — summed for AccumSum, maxed for AccumMax, 0 for
// the measures that may leave a point unmatched (ERP, EDR, LCSS). In
// floating point both are at most the kernel's own value: MinDist is
// termwise at most the point distance the DP adds, the sum runs over the
// query in the order a warping path does, and float addition is monotone.
//
// So against a fixed τ the traversal yields a subset of SearchBoundsContext's
// candidates and a superset of the members with Distance ≤ τ, keys never
// decrease, and a bucket's key is a lower bound on the distance to each of
// its members. Not safe for concurrent use.
type BestFirst struct {
	s    searcher
	env  bool // the measure admits the envelope bound
	heap []bfItem
}

// bfItem is a frontier node with its heap key — the largest bound met on
// the way down, envelopes included —, the path bound accumulated beside it
// (the sum semantics' remaining budget is τ minus this, never the key) and
// the Lemma 5.1 query-suffix start that path narrowed to.
type bfItem struct {
	n     uint32 // index into Trie.nodes
	level int32  // its level: the tie-break reads nothing else of the node
	key   float64
	path  float64
	suf   int
}

// BestFirst starts a traversal for query q under measure m. Nothing below
// the root is visited until the first Next.
func (t *Trie) BestFirst(ctx context.Context, q []geom.Point, m measure.Measure) *BestFirst {
	b := &BestFirst{s: *newSearcher(ctx, t, q, m, math.Inf(1), nil)}
	b.env = m.SupportsCoverageFilter() && b.s.accum != measure.AccumEdit
	if len(q) > 0 && len(t.nodes) > 0 {
		root := bfItem{level: t.nodes[0].level}
		if b.env && !t.nodes[0].isLeaf() {
			root.key = b.envBound(t.env(t.nodes[0]), math.Inf(1))
		}
		b.heap = append(make([]bfItem, 0, 64), root)
	}
	return b
}

// Next returns the trajectory indices of the next leaf bucket and its lower
// bound, or ok=false once no remaining bucket has a bound ≤ tau (or the
// context ended — see Err). tau must not grow between calls: a subtree is
// dropped for good when its bound exceeds the tau of the call that reached
// it, which is sound for the caller's final threshold exactly because every
// earlier tau was at least as large. Buckets come in non-decreasing bound
// order; among equal bounds deeper nodes first, so a query that sits inside
// nested MBRs reaches its own leaf before its neighbours' subtrees are
// expanded. idxs aliases the trie's own leaf array: read it, do not keep or
// write it.
func (b *BestFirst) Next(tau float64) (idxs []uint32, lb float64, ok bool) {
	s := &b.s
	for s.err == nil && len(b.heap) > 0 && b.heap[0].key <= tau {
		if s.visits++; s.visits%ctxCheckEvery == 0 {
			if s.err = s.ctx.Err(); s.err != nil {
				break
			}
		}
		it := b.pop()
		if n := s.t.nodes[it.n]; !n.isLeaf() {
			b.expand(it, tau)
		} else if n.n > 0 {
			return s.t.members(n), it.key, true
		}
	}
	return nil, 0, false
}

// Err reports the context error that ended the traversal, if any (a
// context's error, once set, never changes).
func (b *BestFirst) Err() error { return b.s.ctx.Err() }

// envBound is the envelope bound of the query against env, abandoned at the
// first partial value above tau (a partial sum or max of non-negative terms
// is itself a lower bound).
func (b *BestFirst) envBound(env *geom.MBR, tau float64) float64 {
	var lb float64
	sum := b.s.accum == measure.AccumSum
	for _, p := range b.s.q {
		d := env.MinDist(p)
		if sum {
			lb += d
		} else if d > lb {
			lb = d
		}
		if lb > tau {
			break
		}
	}
	return lb
}

// expand pushes the children of it whose bound is within tau — the
// per-level tests of searcher.visitChild with the remaining budget derived
// from the live tau instead of threaded down a recursion, then, on an
// internal child that passed them, the envelope bound.
func (b *BestFirst) expand(it bfItem, tau float64) {
	s := &b.s
	q, t := s.q, s.t
	for ci, end := it.n+1, t.nodes[it.n].link; ci < end; ci = t.after(ci) {
		c, mbr := t.nodes[ci], t.mbrs[ci]
		if c.isLeaf() && mbr.IsEmpty() {
			// Exhausted bucket: no level point to test; its members stay
			// candidates at the bound accumulated so far.
			b.push(bfItem{n: ci, level: c.level, key: it.key, path: it.path, suf: it.suf})
			continue
		}
		path, nsuf := it.path, it.suf
		if s.accum == measure.AccumEdit {
			// Every level is matched against the whole query; one farther
			// than ε from every query point costs one edit.
			if d, _ := s.pivotMinDist(mbr, math.Inf(1), 0); d > s.eps {
				path++
			}
			nsuf = 0
		} else {
			rem := tau // max semantics: the budget is not consumed
			if s.accum == measure.AccumSum {
				rem = tau - it.path
			}
			var d float64
			if s.anchored && c.level == 0 {
				d = mbr.MinDist(q[0])
			} else if s.anchored && c.level == 1 {
				d = mbr.MinDist(q[len(q)-1])
			} else {
				d, nsuf = s.pivotMinDist(mbr, rem, it.suf)
			}
			if s.accum == measure.AccumSum {
				path += d
			} else {
				path = math.Max(path, d)
			}
		}
		key := math.Max(it.key, path)
		if key <= tau && b.env && !c.isLeaf() {
			key = math.Max(key, b.envBound(t.env(c), tau))
		}
		if key <= tau {
			b.push(bfItem{n: ci, level: c.level, key: key, path: path, suf: nsuf})
		}
	}
}

func bfLess(a, b bfItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.level > b.level
}

func (b *BestFirst) push(it bfItem) {
	h := append(b.heap, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !bfLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	b.heap = h
}

func (b *BestFirst) pop() bfItem {
	h := b.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && bfLess(h[l], h[best]) {
			best = l
		}
		if r < n && bfLess(h[r], h[best]) {
			best = r
		}
		if best == i {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	b.heap = h
	return top
}
