package measure

import (
	"math"

	"dita/internal/geom"
)

// EDR is Edit Distance on Real sequence (Definition A.2): the minimum
// number of edit operations to make two trajectories equivalent, where two
// points match (substitution cost 0) when their distance is at most Eps.
type EDR struct {
	// Eps is the point-matching tolerance ε.
	Eps float64
}

// Name implements Measure.
func (EDR) Name() string { return "EDR" }

// Accumulation implements Measure.
func (EDR) Accumulation() Accumulation { return AccumEdit }

// Epsilon implements Measure.
func (e EDR) Epsilon() float64 { return e.Eps }

// SupportsCoverageFilter implements Measure: points may be deleted rather
// than matched, so Lemma 5.4 does not hold for EDR.
func (EDR) SupportsCoverageFilter() bool { return false }

// LengthLowerBound implements Measure: every surplus point costs one edit,
// so EDR(T,Q) >= |m-n| (the paper's length filtering, Appendix A).
func (EDR) LengthLowerBound(m, n int) float64 {
	return math.Abs(float64(m - n))
}

// AlignsEndpoints implements Measure: endpoints may be edited away.
func (EDR) AlignsEndpoints() bool { return false }

// GapPoint implements Measure.
func (EDR) GapPoint() (geom.Point, bool) { return geom.Point{}, false }

// Distance implements Measure with the O(mn) edit-distance dynamic
// program.
func (e EDR) Distance(t, q []geom.Point) float64 {
	m, n := len(t), len(q)
	if m == 0 {
		return float64(n)
	}
	if n == 0 {
		return float64(m)
	}
	prev, cur, scratch := twoRows(n)
	defer scratch.Release()
	for j := 0; j <= n; j++ {
		prev[j] = float64(j)
	}
	eps := e.Eps
	for i := 1; i <= m; i++ {
		cur[0] = float64(i)
		ti := t[i-1]
		for j := 1; j <= n; j++ {
			sub := 1.0
			if ti.Dist(q[j-1]) <= eps {
				sub = 0
			}
			best := prev[j-1] + sub
			if v := prev[j] + 1; v < best {
				best = v
			}
			if v := cur[j-1] + 1; v < best {
				best = v
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

// DistanceThreshold implements Measure with a Ukkonen-style banded DP: any
// cell with |i-j| > tau already costs more than tau (each off-diagonal step
// costs one edit), so only the band of width tau around the diagonal is
// evaluated, giving O((m+n)·tau) time, with early abandon when a whole band
// row exceeds tau.
func (e EDR) DistanceThreshold(t, q []geom.Point, tau float64) (float64, bool) {
	return editBandedDP(t, q, tau, func(a, b geom.Point) float64 {
		if a.Dist(b) <= e.Eps {
			return 0
		}
		return 1
	}, false, 0)
}

// LCSS is the paper's Definition A.3 distance form of the Longest Common
// SubSequence measure: matching two points is free when they are within Eps
// and the remaining-length difference respects the window Delta; every
// skipped point costs 1.
type LCSS struct {
	// Eps is the point-matching tolerance ε.
	Eps float64
	// Delta is the temporal window δ: points at positions i, j may only be
	// matched when |i-j| <= Delta.
	Delta int
}

// Name implements Measure.
func (LCSS) Name() string { return "LCSS" }

// Accumulation implements Measure.
func (LCSS) Accumulation() Accumulation { return AccumEdit }

// Epsilon implements Measure.
func (l LCSS) Epsilon() float64 { return l.Eps }

// SupportsCoverageFilter implements Measure.
func (LCSS) SupportsCoverageFilter() bool { return false }

// LengthLowerBound implements Measure: LCSS(T,Q) >= |m-n| since matches
// consume one point from each side.
func (LCSS) LengthLowerBound(m, n int) float64 {
	return math.Abs(float64(m - n))
}

// AlignsEndpoints implements Measure.
func (LCSS) AlignsEndpoints() bool { return false }

// GapPoint implements Measure.
func (LCSS) GapPoint() (geom.Point, bool) { return geom.Point{}, false }

// Distance implements Measure: the Definition A.3 dynamic program. Note
// the window test |i-j| <= Delta applies to the remaining prefix lengths,
// exactly as the recursive definition states.
func (l LCSS) Distance(t, q []geom.Point) float64 {
	m, n := len(t), len(q)
	if m == 0 {
		return float64(n)
	}
	if n == 0 {
		return float64(m)
	}
	prev, cur, scratch := twoRows(n)
	defer scratch.Release()
	for j := 0; j <= n; j++ {
		prev[j] = float64(j)
	}
	for i := 1; i <= m; i++ {
		cur[0] = float64(i)
		ti := t[i-1]
		for j := 1; j <= n; j++ {
			if abs(i-j) <= l.Delta && ti.Dist(q[j-1]) <= l.Eps {
				cur[j] = prev[j-1]
			} else {
				best := prev[j] + 1
				if v := cur[j-1] + 1; v < best {
					best = v
				}
				cur[j] = best
			}
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

// Similarity returns the classic LCSS similarity: the length of the
// longest common subsequence under the spatial tolerance Eps and temporal
// window Delta. The paper's prose examples quote min(m,n) - Similarity;
// Distance implements the Definition A.3 recursion (see TestPaperLCSS).
func (l LCSS) Similarity(t, q []geom.Point) int {
	m, n := len(t), len(q)
	if m == 0 || n == 0 {
		return 0
	}
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for i := 1; i <= m; i++ {
		ti := t[i-1]
		for j := 1; j <= n; j++ {
			if abs(i-j) <= l.Delta && ti.Dist(q[j-1]) <= l.Eps {
				cur[j] = prev[j-1] + 1
			} else {
				cur[j] = prev[j]
				if cur[j-1] > cur[j] {
					cur[j] = cur[j-1]
				}
			}
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

// DistanceThreshold implements Measure with the same banded DP as EDR; the
// LCSS window additionally forbids matches outside |i-j| <= Delta.
func (l LCSS) DistanceThreshold(t, q []geom.Point, tau float64) (float64, bool) {
	return editBandedDP(t, q, tau, func(a, b geom.Point) float64 {
		if a.Dist(b) <= l.Eps {
			return 0
		}
		return math.Inf(1) // LCSS has no substitution, only match or skip
	}, true, l.Delta)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// editBandedDP runs the shared banded edit-distance DP for EDR and LCSS.
// subCost returns the diagonal (match/substitute) cost for a point pair;
// +Inf means the diagonal move is not allowed. When windowed is true the
// diagonal move additionally requires |i-j| <= delta.
func editBandedDP(t, q []geom.Point, tau float64, subCost func(a, b geom.Point) float64, windowed bool, delta int) (float64, bool) {
	m, n := len(t), len(q)
	lb := math.Abs(float64(m - n))
	if lb > tau {
		return lb, false
	}
	if m == 0 {
		return float64(n), float64(n) <= tau
	}
	if n == 0 {
		return float64(m), float64(m) <= tau
	}
	w := int(tau) // band half-width: cells with |i-j| > w cost > tau
	if w < 0 {
		w = 0
	}
	inf := math.Inf(1)
	prev, cur, scratch := twoRows(n)
	defer scratch.Release()
	for j := 0; j <= n; j++ {
		if j <= w {
			prev[j] = float64(j)
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= m; i++ {
		lo := i - w
		if lo < 1 {
			lo = 1
		}
		hi := i + w
		if hi > n {
			hi = n
		}
		rowMin := inf
		if lo > 1 {
			cur[lo-1] = inf
		} else {
			cur[0] = float64(i)
			if float64(i) > tau {
				cur[0] = inf
			}
			// Column 0 is a live cell of the row: without substitution
			// (LCSS) it can be the only one within tau, with the match
			// that completes the alignment still rows ahead.
			rowMin = cur[0]
		}
		if hi < n {
			cur[hi+1] = inf
		}
		ti := t[i-1]
		for j := lo; j <= hi; j++ {
			best := inf
			sc := subCost(ti, q[j-1])
			if !windowed || abs(i-j) <= delta {
				if v := prev[j-1] + sc; v < best {
					best = v
				}
			}
			if v := prev[j] + 1; v < best {
				best = v
			}
			if v := cur[j-1] + 1; v < best {
				best = v
			}
			cur[j] = best
			if best < rowMin {
				rowMin = best
			}
		}
		if rowMin > tau {
			// Every in-band cell exceeds tau and out-of-band cells cost
			// more than tau by construction, so the distance exceeds tau.
			v := rowMin
			if math.IsInf(v, 1) {
				v = tau + 1
			}
			return v, false
		}
		prev, cur = cur, prev
	}
	d := prev[n]
	return d, d <= tau
}
