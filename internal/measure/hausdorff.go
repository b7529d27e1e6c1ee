package measure

import (
	"math"

	"dita/internal/geom"
)

// Hausdorff is the symmetric Hausdorff distance:
//
//	H(T,Q) = max( max_t min_q dist(t,q), max_q min_t dist(t,q) )
//
// the measure the DFT baseline natively supports (the paper's Section 2.3
// cites [46] as handling Hausdorff and Fréchet). Hausdorff ignores point
// order entirely — it is a set distance — so it is max-accumulating and
// unanchored: every trie level is matched against the whole query.
type Hausdorff struct{}

// Name implements Measure.
func (Hausdorff) Name() string { return "HAUSDORFF" }

// Accumulation implements Measure.
func (Hausdorff) Accumulation() Accumulation { return AccumMax }

// Epsilon implements Measure.
func (Hausdorff) Epsilon() float64 { return 0 }

// SupportsCoverageFilter implements Measure: H(T,Q) <= τ forces every
// point of each trajectory within τ of the other, so Lemma 5.4 applies.
func (Hausdorff) SupportsCoverageFilter() bool { return true }

// LengthLowerBound implements Measure.
func (Hausdorff) LengthLowerBound(m, n int) float64 { return 0 }

// AlignsEndpoints implements Measure: Hausdorff is order-free, endpoints
// carry no special role.
func (Hausdorff) AlignsEndpoints() bool { return false }

// GapPoint implements Measure.
func (Hausdorff) GapPoint() (geom.Point, bool) { return geom.Point{}, false }

// Distance implements Measure in O(mn).
func (Hausdorff) Distance(t, q []geom.Point) float64 {
	if len(t) == 0 || len(q) == 0 {
		return math.Inf(1)
	}
	return math.Max(directedHausdorff(t, q, math.Inf(1)), directedHausdorff(q, t, math.Inf(1)))
}

// DistanceThreshold implements Measure: each directed pass abandons as
// soon as some point's nearest neighbor exceeds tau.
func (h Hausdorff) DistanceThreshold(t, q []geom.Point, tau float64) (float64, bool) {
	d1 := directedHausdorff(t, q, tau)
	if d1 > tau {
		return d1, false
	}
	d2 := directedHausdorff(q, t, tau)
	if d2 > tau {
		return d2, false
	}
	return math.Max(d1, d2), true
}

// directedHausdorff returns max_{a in as} min_{b in bs} dist(a,b),
// abandoning (returning a value > tau) once any point's nearest neighbor
// exceeds tau. The abandon test compares the rooted value, the same number
// the full pass would return, so it fires exactly when that exceeds tau.
func directedHausdorff(as, bs []geom.Point, tau float64) float64 {
	worst := 0.0
	for _, a := range as {
		best := math.Inf(1)
		for _, b := range bs {
			if d := a.SqDist(b); d < best {
				best = d
				if best == 0 {
					break
				}
			}
		}
		if best > worst {
			worst = best
			if d := math.Sqrt(worst); d > tau {
				return d
			}
		}
	}
	return math.Sqrt(worst)
}
