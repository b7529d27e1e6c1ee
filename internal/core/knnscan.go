package core

import (
	"cmp"
	"context"
	"math"
	"slices"

	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/obs"
	"dita/internal/traj"
	"dita/internal/trie"
)

// knnEntry is one heap slot of a KNNAcc.
type knnEntry struct {
	t *traj.T
	d float64
}

// worse orders heap entries by (distance, ID) descending-priority: a is
// worse than b when it sorts after b in the final ascending result order.
func worse(a, b knnEntry) bool {
	if a.d != b.d {
		return a.d > b.d
	}
	return a.t.ID > b.t.ID
}

// KNNAcc accumulates the best k (distance, trajectory) pairs seen so far —
// the global top-k state of the incremental best-first kNN. It is a
// k-bounded max-heap ordered by (distance, trajectory ID), so the root is
// always the current k-th best and Tau() is the live pruning threshold.
// Partitions and their overlay layers are disjoint, so a scan meets every
// trajectory at most once; only a warm-started accumulator (knnPrime)
// records which trajectories it has already resolved, so the ones it was
// primed with are not verified again when their partition is scanned.
// Not safe for concurrent use.
type KNNAcc struct {
	k        int
	heap     []knnEntry
	resolved map[*traj.T]struct{} // nil unless primed
}

// NewKNNAcc returns an empty accumulator for k results. k must be >= 1.
func NewKNNAcc(k int) *KNNAcc {
	return &KNNAcc{k: k, heap: make([]knnEntry, 0, k)}
}

// Full reports whether k results have been accumulated.
func (a *KNNAcc) Full() bool { return len(a.heap) >= a.k }

// Len returns the number of accumulated results (at most k).
func (a *KNNAcc) Len() int { return len(a.heap) }

// Tau returns the live pruning threshold: the k-th best distance once the
// heap is full, +Inf before. Distances are accepted at <= Tau (with ID
// tie-breaking), so candidates with a lower bound strictly above Tau can
// never enter the result.
func (a *KNNAcc) Tau() float64 {
	if !a.Full() {
		return math.Inf(1)
	}
	return a.heap[0].d
}

// Resolved reports whether a primed accumulator has already resolved t.
func (a *KNNAcc) Resolved(t *traj.T) bool {
	_, ok := a.resolved[t]
	return ok
}

// Resolve marks t resolved: it was verified exactly or ruled out at the
// current threshold. Since Tau only shrinks, a candidate pruned at the
// threshold of its resolution stays pruned forever.
func (a *KNNAcc) Resolve(t *traj.T) {
	if a.resolved != nil {
		a.resolved[t] = struct{}{}
	}
}

// Add resolves t and offers its exact distance in one step.
func (a *KNNAcc) Add(t *traj.T, d float64) {
	a.Resolve(t)
	a.Offer(t, d)
}

// Offer inserts (t, d) when it beats the current k-th best under the
// (distance, ID) order, evicting the worst entry if the heap is full.
// d must be the exact distance. Reports whether the entry was kept.
func (a *KNNAcc) Offer(t *traj.T, d float64) bool {
	e := knnEntry{t: t, d: d}
	if len(a.heap) < a.k {
		a.heap = append(a.heap, e)
		a.siftUp(len(a.heap) - 1)
		return true
	}
	if !worse(a.heap[0], e) {
		return false
	}
	a.heap[0] = e
	a.siftDown(0)
	return true
}

func (a *KNNAcc) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(a.heap[i], a.heap[p]) {
			return
		}
		a.heap[i], a.heap[p] = a.heap[p], a.heap[i]
		i = p
	}
}

func (a *KNNAcc) siftDown(i int) {
	n := len(a.heap)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && worse(a.heap[l], a.heap[big]) {
			big = l
		}
		if r < n && worse(a.heap[r], a.heap[big]) {
			big = r
		}
		if big == i {
			return
		}
		a.heap[i], a.heap[big] = a.heap[big], a.heap[i]
		i = big
	}
}

// Results returns the accumulated neighbors in ascending (distance, ID)
// order — the kNN answer.
func (a *KNNAcc) Results() []SearchResult {
	out := make([]SearchResult, 0, len(a.heap))
	for _, e := range a.heap {
		out = append(out, SearchResult{Traj: e.t, Distance: e.d})
	}
	slices.SortFunc(out, func(a, b SearchResult) int {
		return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.Traj.ID, b.Traj.ID))
	})
	return out
}

// knnScanCtxEvery is the candidate stride between context checks in the
// scan loop (the verification step itself is the abort granularity).
const knnScanCtxEvery = 32

// knnScan is the verification state one partition-layer scan threads
// through its candidates: the live threshold min(capTau, acc.Tau()) is
// re-read before every candidate (early abandoning against the live k-th
// best), and the cascade's counters are collected for the scan's funnel.
//
// capTau caps the threshold (the network mode passes the coordinator's
// round τ; the local engine passes +Inf). While acc is not yet full and
// capTau is +Inf the effective threshold is +Inf: candidates are then
// verified with the exact Distance kernel, never DistanceThreshold
// (threshold kernels must not see an infinite τ — the banded edit DP
// sizes its band from it).
type knnScan struct {
	m      measure.Measure
	q      []geom.Point
	qMBR   geom.MBR
	acc    *KNNAcc
	capTau float64
	box    boxBound

	v    *Verifier
	vTau float64
	// The exact-Distance path and the box bound bypass the Verifier, so
	// their counts are tracked by hand and merged with the verifier's in
	// funnel.
	exactVerified, boxPruned, matched int64
}

func newKNNScan(m measure.Measure, q []geom.Point, acc *KNNAcc, capTau float64) knnScan {
	return knnScan{m: m, q: q, qMBR: geom.MBROf(q), acc: acc, capTau: capTau, box: boxBoundOf(m)}
}

func (s *knnScan) tau() float64 { return math.Min(s.capTau, s.acc.Tau()) }

// boxBound says which O(1) lower bound the two whole-trajectory MBRs give
// under a measure: every pair of matched points is at least
// MinDistMBR(MBR_T, MBR_Q) apart, so a max measure is at least that and a
// sum measure at least that per step of its path.
type boxBound int

const (
	boxNone boxBound = iota // a point may go unmatched (ERP, EDR, LCSS)
	boxMax
	boxSum
)

// boxBoundOf derives the bound from what Measure already says: the premise
// is Lemma 5.4's — every point aligns with some point of the other side.
func boxBoundOf(m measure.Measure) boxBound {
	if !m.SupportsCoverageFilter() {
		return boxNone
	}
	switch m.Accumulation() {
	case measure.AccumSum:
		return boxSum
	case measure.AccumMax:
		return boxMax
	}
	return boxNone
}

// lowerBound returns the box bound for a candidate of n points with MBR
// tMBR against a query of len(q) points.
//
// For a max measure the box distance is termwise at most every point
// distance the kernel takes its maximum over, in floating point too. For a
// sum measure a warping path has N >= max(m, n) steps of at least d each,
// but fl(N·d) is NOT at most the kernel's sequential sum of N terms >= d:
// on stationary trajectories every step costs exactly d, and N−1 rounded
// additions can land an ulp or more below the rounded product — a duplicate
// tying at the k-th distance would be pruned. The sequential sum is at
// least N·d·(1−(N−1)u), u = 2⁻⁵³, so the product is deflated by N·2⁻⁵²,
// which also absorbs its own two roundings.
func (b boxBound) lowerBound(qMBR, tMBR geom.MBR, qLen, tLen int) float64 {
	if b == boxNone {
		return 0
	}
	d := qMBR.MinDistMBR(tMBR)
	if b == boxMax || d == 0 {
		return d
	}
	n := float64(max(qLen, tLen))
	return n * d * (1 - n*0x1p-52)
}

// verify resolves one candidate at threshold tau and offers it to acc.
// Every threshold kernel accepts exactly when Distance <= tau and returns
// Distance's bits (the Measure contract), so what enters the heap is the
// exact kernel's distance whichever path computed it: an answer's
// (distance, ID) order — ties between identical geometries included — does
// not depend on which partition, round or kernel happened to meet a
// candidate first, and is exactly brute force's.
func (s *knnScan) verify(t *traj.T, meta VerifyMeta, tau float64) {
	if math.IsInf(tau, 1) {
		s.exactVerified++
		s.matched++
		s.acc.Add(t, s.m.Distance(t.Points, s.q))
		return
	}
	if s.box.lowerBound(s.qMBR, meta.mbr, len(s.q), len(t.Points)) > tau {
		// Counted under the coverage stage: the same two boxes, asked how
		// far apart instead of whether within τ.
		s.boxPruned++
		s.acc.Resolve(t)
		return
	}
	if s.v == nil {
		s.v = new(Verifier)
		s.v.init(s.m, s.q, tau, trajMeta{mbr: s.qMBR})
	} else if tau != s.vTau {
		s.v.SetTau(tau)
	}
	s.vTau = tau
	d, ok := s.v.Verify(t, meta)
	s.acc.Resolve(t)
	if ok && s.acc.Offer(t, d) {
		s.matched++
	}
}

// funnel completes f (Considered and TrieCands set by the caller) from the
// verifier's cascade counters plus the exact-Distance path's and the box
// bound's counts.
func (s *knnScan) funnel(f obs.Funnel) obs.Funnel {
	var lenPruned, covPruned, verified int64
	if s.v != nil {
		lenPruned = s.v.LengthPruned.Load()
		covPruned = s.v.CoveragePruned.Load()
		verified = s.v.Verified.Load()
	}
	f.AfterLength = f.TrieCands - lenPruned
	f.AfterCoverage = f.AfterLength - covPruned - s.boxPruned
	f.Verified = verified + s.exactVerified
	f.Matched = s.matched
	return f
}

// KNNScanPartition runs the best-first candidate scan of one partition: an
// incremental best-first trie traversal hands over leaf buckets in
// ascending lower-bound order, pruned against the live threshold as it
// expands, and the scan verifies them in that order, cutting exactly when
// the next bound exceeds the threshold. The part of the trie the final
// threshold rules out is never descended. Already-resolved trajectories
// are skipped, and every processed candidate is marked resolved.
//
// It is sequential by design: τ mutates between candidates.
//
// masked, when non-nil, hides base members superseded or deleted by a
// partition's ingest overlay (the overlay's own members are scanned by
// KNNScanLive; View.KNNScan runs the two). The funnel's TrieCands counts
// the unmasked candidates the traversal handed over before the cut.
func KNNScanPartition(ctx context.Context, m measure.Measure, q []geom.Point,
	idx *trie.Trie, trajs []*traj.T, meta []VerifyMeta, masked func(id int) bool,
	acc *KNNAcc, capTau float64) (obs.Funnel, error) {

	f := obs.Funnel{Considered: int64(len(trajs))}
	s := newKNNScan(m, q, acc, capTau)
	bf := idx.BestFirst(ctx, q, m)
	seen := 0
scan:
	for {
		idxs, lb, ok := bf.Next(s.tau())
		if !ok {
			break
		}
		for _, i := range idxs {
			if seen%knnScanCtxEvery == 0 && ctx.Err() != nil {
				break scan
			}
			seen++
			tau := s.tau()
			if lb > tau {
				break scan // buckets come in bound order: the rest are pruned too
			}
			t := trajs[i]
			if masked != nil && masked(t.ID) {
				continue
			}
			f.TrieCands++
			if acc.Resolved(t) {
				continue
			}
			s.verify(t, meta[i], tau)
		}
	}
	return s.funnel(f), bf.Err()
}

// KNNScanLive brute-forces a view's overlay into the accumulator: no trie
// exists over it, so every member goes straight to the verification
// cascade with the threshold re-read from acc before each candidate,
// exactly like KNNScanPartition's verification loop.
func KNNScanLive(ctx context.Context, m measure.Measure, q []geom.Point,
	live []*traj.T, meta []VerifyMeta, acc *KNNAcc, capTau float64) (obs.Funnel, error) {

	f := obs.Funnel{Considered: int64(len(live)), TrieCands: int64(len(live))}
	s := newKNNScan(m, q, acc, capTau)
	for ci, t := range live {
		if ci%knnScanCtxEvery == 0 {
			if err := ctx.Err(); err != nil {
				return s.funnel(f), err
			}
		}
		if acc.Resolved(t) {
			continue
		}
		s.verify(t, meta[ci], s.tau())
	}
	return s.funnel(f), nil
}
