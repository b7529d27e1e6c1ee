package core

import (
	"math"
	"sync/atomic"

	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/traj"
)

// trajMeta caches the per-trajectory verification input, computed once at
// index-build time ("computing MBRs ... is pre-processed during creating
// the index", Section 5.3.3).
type trajMeta struct {
	mbr geom.MBR
}

func newTrajMeta(t *traj.T) trajMeta { return trajMeta{mbr: t.MBR()} }

// VerifyMeta is the exported form of the per-trajectory verification
// metadata, for callers (like the network-mode worker) that manage their
// own partition storage.
type VerifyMeta = trajMeta

// NewVerifyMeta computes a trajectory's verification metadata. The cell
// side length of the retired Lemma 5.6 filter is unused: it is part of the
// signature the benchmark compiles against, like Engine.CellD.
func NewVerifyMeta(t *traj.T, _ float64) VerifyMeta { return newTrajMeta(t) }

// Verifier runs the verification cascade for one query: length filter
// (edit measures) → MBR coverage filtering (Lemma 5.4) → threshold distance
// with early abandoning. It caches the query-side MBR and expanded MBR.
//
// The cached query-side state is read-only after construction and the
// stats counters are atomic, so one Verifier may be shared by the worker
// pool that verifies a candidate list concurrently (VerifyAll). The
// atomic counters make the struct non-copyable; always use it by pointer.
type Verifier struct {
	m     measure.Measure
	tau   float64
	q     []geom.Point
	qMBR  geom.MBR
	qEMBR geom.MBR
	// Stats
	CoveragePruned atomic.Int64
	LengthPruned   atomic.Int64
	Verified       atomic.Int64
	Accepted       atomic.Int64
}

// NewVerifier prepares a verifier for query q at threshold tau. The cell
// side length is unused (see NewVerifyMeta).
func NewVerifier(m measure.Measure, q []geom.Point, tau, _ float64) *Verifier {
	v := new(Verifier)
	v.init(m, q, tau, trajMeta{mbr: geom.MBROf(q)})
	return v
}

// init prepares a zero Verifier in place, with the query's MBR already
// computed: a join edge reuses the shipping side's index-time metadata and
// keeps one verifier per shipped trajectory in a single slice.
func (v *Verifier) init(m measure.Measure, q []geom.Point, tau float64, meta trajMeta) {
	v.m, v.tau, v.q, v.qMBR = m, tau, q, meta.mbr
	v.qEMBR = v.qMBR.Expand(tau)
}

// SetTau re-targets the verifier to a tighter threshold, recomputing the
// cached expanded query MBR; the best-first kNN scan shrinks τ as better
// neighbors land. NOT safe to call while VerifyAll workers are running —
// the kNN scan verifies sequentially precisely because τ mutates between
// candidates. tau must be finite.
func (v *Verifier) SetTau(tau float64) {
	v.tau = tau
	v.qEMBR = v.qMBR.Expand(tau)
}

// Verify decides whether candidate t (with its cached metadata) is within
// tau of the query, returning the distance when accepted.
func (v *Verifier) Verify(t *traj.T, meta trajMeta) (float64, bool) {
	// Length filter (edit measures: Appendix A).
	if lb := v.m.LengthLowerBound(len(t.Points), len(v.q)); lb > v.tau {
		v.LengthPruned.Add(1)
		return lb, false
	}
	// MBR coverage filtering, Lemma 5.4: if similar, EMBR_{T,τ} covers
	// MBR_Q and EMBR_{Q,τ} covers MBR_T. O(1) per candidate.
	if v.m.SupportsCoverageFilter() {
		if !v.qEMBR.Covers(meta.mbr) || !meta.mbr.Expand(v.tau).Covers(v.qMBR) {
			v.CoveragePruned.Add(1)
			return math.Inf(1), false
		}
	}
	// Exact threshold verification (band-limited for DTW).
	v.Verified.Add(1)
	d, ok := v.m.DistanceThreshold(t.Points, v.q, v.tau)
	if ok {
		v.Accepted.Add(1)
	}
	return d, ok
}
