// Package measure implements the trajectory similarity functions DITA
// supports (Section 2.1 and Appendix A of the paper): Dynamic Time Warping
// (DTW, the default), the discrete Fréchet distance, Edit Distance on Real
// sequence (EDR), the Longest Common SubSequence distance (LCSS, the
// paper's Definition A.3 formulation), Edit distance with Real Penalty
// (ERP), and the symmetric Hausdorff distance.
//
// Each function comes in two flavors: an exact O(mn) dynamic program and a
// threshold-aware variant that abandons early once the distance provably
// exceeds τ (the paper's optimized DTW(T,Q,τ), Section 5.3.3 — here a DP
// limited to the band of cells still within τ).
//
// The Measure interface abstracts what the DITA index needs to know about a
// function: how per-level lower bounds accumulate down the trie levels (sum
// for DTW/ERP, max for Fréchet, edit-count for EDR/LCSS; PathBound) and
// which verification filters are sound for it.
package measure

import (
	"fmt"
	"math"

	"dita/internal/dppool"
	"dita/internal/geom"
)

// Accumulation describes how a measure combines per-level MinDist values
// during trie descent into a lower bound on its distance (Section 5.3 and
// Appendix A). PathBound is that bound and Fold its one rule.
type Accumulation int

const (
	// AccumSum: the distance is a sum of per-alignment point distances
	// (DTW, ERP). Each trie level's MinDist is added to the bound.
	AccumSum Accumulation = iota
	// AccumMax: the distance is a maximum over the alignment (Fréchet).
	// The bound is the largest level MinDist: every level must
	// independently be within τ.
	AccumMax
	// AccumEdit: the distance counts edit operations (EDR, LCSS). A level
	// whose MinDist exceeds the matching tolerance ε costs one edit.
	AccumEdit
)

// PathBound is a lower bound on a distance folded from one term per
// indexing point of a member (first, last, pivots): the trie's accumulated
// threshold and the global pruning's endpoint bound. Fold is the one place
// a level bound is summed, maxed or counted, and every test of a PathBound
// against τ is Value() > τ.
//
// Under AccumSum the terms are added in the order the DP adds the point
// distances they bound: the first point's, then each pivot's in index
// order, and the last point's at the end, held aside until then. That
// makes the bound sound in floating point and not only in exact
// arithmetic: each term is at most the point distance the DP adds for its
// point (MinDist to a box holding it), the DP's value is a left-to-right
// sum along its warping path, which meets those points in that order and
// adds only non-negative terms besides them, and float addition is
// monotone. A maximum is exact and an edit count is a small integer, so
// their order does not matter. The argument needs first and last to be
// two points: a one-point member would count its one term twice, so every
// edge that admits a trajectory refuses one (traj.Validate).
type PathBound struct {
	head float64 // the first point's and the pivots' terms, in index order
	last float64 // the last point's term (AccumSum), added by Value
}

// Fold returns p with the lower bound d on one indexing point's term
// folded in: added under AccumSum (held aside when last marks the last
// point's term), maxed under AccumMax, and counted as one edit past eps
// under AccumEdit.
func (a Accumulation) Fold(p PathBound, d, eps float64, last bool) PathBound {
	switch a {
	case AccumMax:
		p.head = max(p.head, d)
	case AccumEdit:
		if d > eps {
			p.head++
		}
	default:
		if last {
			p.last = d
		} else {
			p.head += d
		}
	}
	return p
}

// Value returns the bound: the terms folded so far, the last point's added
// at the end.
func (p PathBound) Value() float64 { return p.head + p.last }

// Measure is a trajectory distance function together with the metadata the
// DITA index and verifier need.
type Measure interface {
	// Name returns the canonical upper-case name ("DTW", "FRECHET", ...).
	Name() string
	// Distance computes the exact distance between two trajectories. It is
	// bitwise symmetric: Distance(t, q) and Distance(q, t) are the same
	// float64. A self-join verifies each unordered pair once and returns
	// that one distance for both orientations.
	Distance(t, q []geom.Point) float64
	// DistanceThreshold computes the distance with early abandoning. The
	// returned bool is true exactly when Distance(t, q) <= tau — ties
	// included — and the value is then Distance's, bit for bit, so callers
	// that rank by distance (kNN) need no exact recomputation; when it is
	// false the value is only guaranteed to exceed tau. With Distance's
	// symmetry this makes DistanceThreshold(t, q, tau) and
	// DistanceThreshold(q, t, tau) accept together, with the same bits.
	DistanceThreshold(t, q []geom.Point, tau float64) (float64, bool)
	// Accumulation reports how the trie's level bounds fold (PathBound).
	Accumulation() Accumulation
	// Epsilon returns the point-matching tolerance for edit-based measures
	// and 0 for the others.
	Epsilon() float64
	// SupportsCoverageFilter reports whether the MBR-coverage filter
	// (Lemma 5.4) is sound for this measure. True for DTW, Fréchet and ERP
	// (every point must align within τ); false for edit-based measures
	// where points may remain unmatched.
	SupportsCoverageFilter() bool
	// LengthLowerBound returns a lower bound on the distance implied by
	// the two lengths alone (|m-n| for EDR/LCSS, 0 otherwise).
	LengthLowerBound(m, n int) float64
	// AlignsEndpoints reports whether the warping path is anchored at
	// (1,1) and (m,n) so that the trie's first/last levels may be matched
	// against q1/qn alone (true for DTW and Fréchet). Edit-based measures
	// and ERP may skip endpoints, so all their levels are matched against
	// the whole query.
	AlignsEndpoints() bool
	// GapPoint returns the gap reference point for measures that may align
	// a point against a gap (ERP); ok is false for the others. Index
	// lower bounds must take min(dist to query, dist to gap) when ok.
	GapPoint() (geom.Point, bool)
}

// registry is every measure ByName can resolve — which is every measure
// the engine, dnet's MeasureSpec and the snapshot loader can run. The
// threshold-contract and symmetry tests iterate it, so a measure added
// here cannot skip the exactness kNN and the self-join rely on.
var registry = []struct {
	names []string
	make  func(epsilon float64, delta int) Measure
}{
	{[]string{"DTW"}, func(float64, int) Measure { return DTW{} }},
	{[]string{"FRECHET", "FRÉCHET"}, func(float64, int) Measure { return Frechet{} }},
	{[]string{"EDR"}, func(eps float64, _ int) Measure { return EDR{Eps: eps} }},
	{[]string{"LCSS"}, func(eps float64, delta int) Measure { return LCSS{Eps: eps, Delta: delta} }},
	{[]string{"ERP"}, func(float64, int) Measure { return ERP{} }},
	{[]string{"HAUSDORFF"}, func(float64, int) Measure { return Hausdorff{} }},
}

// ByName returns the measure registered under the given (case-insensitive)
// name. Edit-based measures are constructed with the provided epsilon and
// (for LCSS) delta.
func ByName(name string, epsilon float64, delta int) (Measure, error) {
	u := upper(name)
	for _, r := range registry {
		for _, n := range r.names {
			if n == u {
				return r.make(epsilon, delta), nil
			}
		}
	}
	return nil, fmt.Errorf("measure: unknown distance function %q", name)
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// twoRows borrows two pooled DP rows of width n+1 sharing one backing
// buffer. Every distance kernel in this package draws its scratch from
// internal/dppool so steady-state verification allocates nothing.
func twoRows(n int) (prev, cur []float64, scratch *dppool.Floats) {
	scratch = dppool.GetFloats(2 * (n + 1))
	return scratch.S[:n+1], scratch.S[n+1:], scratch
}

// DTW is Dynamic Time Warping (Definition 2.2): the default, most robust
// similarity function per the paper's discussion.
type DTW struct{}

// Name implements Measure.
func (DTW) Name() string { return "DTW" }

// Accumulation implements Measure.
func (DTW) Accumulation() Accumulation { return AccumSum }

// Epsilon implements Measure.
func (DTW) Epsilon() float64 { return 0 }

// SupportsCoverageFilter implements Measure. Every point of T contributes
// at least one aligned pair to the DTW sum, so if DTW(T,Q) <= τ then every
// point of T is within τ of some point of Q (hence of MBR_Q).
func (DTW) SupportsCoverageFilter() bool { return true }

// LengthLowerBound implements Measure.
func (DTW) LengthLowerBound(m, n int) float64 { return 0 }

// AlignsEndpoints implements Measure: DTW paths are anchored at (1,1) and
// (m,n) (Section 5.3.1, aligned point matching).
func (DTW) AlignsEndpoints() bool { return true }

// GapPoint implements Measure.
func (DTW) GapPoint() (geom.Point, bool) { return geom.Point{}, false }

// Distance implements Measure with the classic O(mn) dynamic program.
func (DTW) Distance(t, q []geom.Point) float64 {
	m, n := len(t), len(q)
	if m == 0 || n == 0 {
		return math.Inf(1)
	}
	prev, cur, scratch := twoRows(n)
	defer scratch.Release()
	inf := math.Inf(1)
	for j := 0; j <= n; j++ {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= m; i++ {
		cur[0] = inf
		ti := t[i-1]
		for j := 1; j <= n; j++ {
			d := ti.Dist(q[j-1])
			best := prev[j-1] // diagonal
			if prev[j] < best {
				best = prev[j] // up: advance t only
			}
			if cur[j-1] < best {
				best = cur[j-1] // left: advance q only
			}
			cur[j] = d + best
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

// DistanceThreshold implements Measure with the pruned DP below: on accept
// the value is Distance's, bit for bit, and accept ⇔ Distance(t, q) <= tau.
func (DTW) DistanceThreshold(t, q []geom.Point, tau float64) (float64, bool) {
	return dtwPruned(t, q, tau)
}

// dtwPruned is threshold DTW over the band of cells that can still lie on a
// warping path of cost <= tau: O((m+n)·w) for a band w columns wide instead
// of Distance's O(m·n).
//
// A cell is live when its value plus what every path through it has yet to
// pay — dist(t_m, q_n) on the rows above the last, nothing on row m — is
// within tau. Row i is computed from the first live column of row i-1 to one
// past its last (the cells with a live up or diagonal predecessor), then
// rightwards for as long as the left neighbour is live; every other cell
// reads as +Inf, and a row without a live cell abandons.
//
// Why this is exact. Point distances are non-negative and float addition is
// monotone, so values never decrease along a warping path, a pruned cell is
// never below its true value, and a cell on a path into (m, n) satisfies
// value + dist(t_m, q_n) <= Distance in floating point. If Distance <= tau,
// every cell of the optimal path therefore passes the liveness test — which
// is that very inequality, with no tolerance — and by induction along the
// path each is computed from its true minimum predecessor by the same
// `d + min(diag, up, left)` as in Distance. If Distance > tau, cell (m, n)
// is either never reached or holds a value >= Distance. Ties (tau = 0,
// tau = Distance) decide exactly as `Distance <= tau` does.
func dtwPruned(t, q []geom.Point, tau float64) (float64, bool) {
	m, n := len(t), len(q)
	inf := math.Inf(1)
	if m == 0 || n == 0 {
		return inf, false
	}
	// Rows are n+2 wide: column 0 is the DP's left border, and the column
	// after the last one computed (at most n+1) takes a +Inf sentinel, so
	// the next row never reads a stale cell.
	w := n + 2
	scratch := dppool.GetFloats(2 * w)
	defer scratch.Release()
	prev, cur := scratch.S[:w], scratch.S[w:]
	prev[0], prev[1] = 0, inf // row 0: only the origin is live
	lo, hi := 0, 0            // first and last live column of prev
	rest := t[m-1].Dist(q[n-1])
	for i := 1; i <= m; i++ {
		if i == m {
			rest = 0
		}
		ti := t[i-1]
		j, end := max(lo, 1), min(hi+1, n)
		cur[j-1] = inf
		lo, hi = 0, 0 // now row i's; columns start at 1, so 0 means none yet
		for ; j <= end; j++ {
			best := prev[j-1]
			if prev[j] < best {
				best = prev[j]
			}
			if cur[j-1] < best {
				best = cur[j-1]
			}
			v := ti.Dist(q[j-1]) + best
			cur[j] = v
			if v+rest <= tau {
				if lo == 0 {
					lo = j
				}
				hi = j
			}
		}
		for ; j <= n && hi == j-1; j++ {
			v := ti.Dist(q[j-1]) + cur[j-1]
			cur[j] = v
			if v+rest <= tau {
				hi = j
			}
		}
		if hi == 0 {
			return inf, false
		}
		cur[j] = inf
		prev, cur = cur, prev
	}
	if hi < n {
		return inf, false
	}
	return prev[n], true
}

// AMD computes the accumulated minimum distance lower bound of Lemma 4.1:
//
//	AMD(T,Q) = dist(t1,q1) + dist(tm,qn) + Σ_{i=2}^{m-1} min_j dist(ti,qj).
//
// AMD(T,Q) <= DTW(T,Q), so AMD > τ proves dissimilarity. It costs O(mn)
// like DTW; the pivot-based PAMD (package pivot / core) is the cheap
// version.
func AMD(t, q []geom.Point) float64 {
	m, n := len(t), len(q)
	if m == 0 || n == 0 {
		return math.Inf(1)
	}
	sum := t[0].Dist(q[0]) + t[m-1].Dist(q[n-1])
	for i := 1; i < m-1; i++ {
		sum += minDistToTraj(t[i], q)
	}
	return sum
}

func minDistToTraj(p geom.Point, q []geom.Point) float64 {
	best := math.Inf(1)
	for _, qj := range q {
		if d := p.SqDist(qj); d < best {
			best = d
		}
	}
	return math.Sqrt(best)
}
