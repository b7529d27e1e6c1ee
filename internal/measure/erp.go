package measure

import (
	"dita/internal/geom"
)

// ERP is Edit distance with Real Penalty (Chen & Ng, VLDB 2004; listed in
// the paper's Section 2.3 catalogue of supported functions). A point may be
// matched against a point of the other trajectory (cost = their distance)
// or against a constant gap reference point g (cost = distance to g). ERP
// is a metric.
type ERP struct {
	// Gap is the gap reference point g; the conventional choice is the
	// origin, which the zero value provides.
	Gap geom.Point
}

// Name implements Measure.
func (ERP) Name() string { return "ERP" }

// Accumulation implements Measure: ERP sums real-valued penalties like
// DTW.
func (ERP) Accumulation() Accumulation { return AccumSum }

// Epsilon implements Measure.
func (ERP) Epsilon() float64 { return 0 }

// SupportsCoverageFilter implements Measure: a point may be gapped, and
// its gap penalty says nothing about its distance to the other
// trajectory's MBR, so Lemma 5.4 is unsound for ERP.
func (ERP) SupportsCoverageFilter() bool { return false }

// LengthLowerBound implements Measure.
func (ERP) LengthLowerBound(m, n int) float64 { return 0 }

// AlignsEndpoints implements Measure: leading and trailing points may be
// gapped, so endpoints are not anchored.
func (ERP) AlignsEndpoints() bool { return false }

// GapPoint implements Measure: index lower bounds must allow every indexed
// point to be matched at cost dist(p, Gap) instead of its distance to the
// query.
func (e ERP) GapPoint() (geom.Point, bool) { return e.Gap, true }

// Distance implements Measure with the O(mn) dynamic program.
func (e ERP) Distance(t, q []geom.Point) float64 {
	m, n := len(t), len(q)
	g := e.Gap
	prev, cur, scratch := twoRows(n)
	defer scratch.Release()
	prev[0] = 0
	for j := 1; j <= n; j++ {
		prev[j] = prev[j-1] + q[j-1].Dist(g)
	}
	for i := 1; i <= m; i++ {
		ti := t[i-1]
		tiGap := ti.Dist(g)
		cur[0] = prev[0] + tiGap
		for j := 1; j <= n; j++ {
			best := prev[j-1] + ti.Dist(q[j-1]) // match
			if v := prev[j] + tiGap; v < best { // gap t_i
				best = v
			}
			if v := cur[j-1] + q[j-1].Dist(g); v < best { // gap q_j
				best = v
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

// DistanceThreshold implements Measure with row-minimum early abandoning:
// ERP row minima are non-decreasing (all step costs are non-negative), so a
// row whose minimum exceeds tau proves the distance exceeds tau.
func (e ERP) DistanceThreshold(t, q []geom.Point, tau float64) (float64, bool) {
	m, n := len(t), len(q)
	g := e.Gap
	prev, cur, scratch := twoRows(n)
	defer scratch.Release()
	prev[0] = 0
	for j := 1; j <= n; j++ {
		prev[j] = prev[j-1] + q[j-1].Dist(g)
	}
	for i := 1; i <= m; i++ {
		ti := t[i-1]
		tiGap := ti.Dist(g)
		cur[0] = prev[0] + tiGap
		rowMin := cur[0]
		for j := 1; j <= n; j++ {
			best := prev[j-1] + ti.Dist(q[j-1])
			if v := prev[j] + tiGap; v < best {
				best = v
			}
			if v := cur[j-1] + q[j-1].Dist(g); v < best {
				best = v
			}
			cur[j] = best
			if best < rowMin {
				rowMin = best
			}
		}
		if rowMin > tau {
			return rowMin, false
		}
		prev, cur = cur, prev
	}
	d := prev[n]
	return d, d <= tau
}
