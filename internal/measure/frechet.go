package measure

import (
	"math"

	"dita/internal/dppool"
	"dita/internal/geom"
)

// Frechet is the discrete Fréchet distance (Definition A.1): the same
// recursion as DTW with max in place of sum. It is a metric, which is why
// the paper classifies it separately from DTW/LCSS/EDR.
type Frechet struct{}

// Name implements Measure.
func (Frechet) Name() string { return "FRECHET" }

// Accumulation implements Measure: Fréchet takes the max over the
// alignment, so trie descent checks each level against the full threshold
// instead of consuming it (Appendix A: "DITA doesn't need to update τ by
// subtracting distance from it when querying the index").
func (Frechet) Accumulation() Accumulation { return AccumMax }

// Epsilon implements Measure.
func (Frechet) Epsilon() float64 { return 0 }

// SupportsCoverageFilter implements Measure: Fréchet <= τ forces every
// point of each trajectory within τ of the other, so Lemma 5.4 applies.
func (Frechet) SupportsCoverageFilter() bool { return true }

// LengthLowerBound implements Measure.
func (Frechet) LengthLowerBound(m, n int) float64 { return 0 }

// AlignsEndpoints implements Measure: Fréchet paths are anchored like DTW.
func (Frechet) AlignsEndpoints() bool { return true }

// GapPoint implements Measure.
func (Frechet) GapPoint() (geom.Point, bool) { return geom.Point{}, false }

// Distance implements Measure with the O(mn) dynamic program.
func (Frechet) Distance(t, q []geom.Point) float64 {
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
			best := prev[j-1]
			if prev[j] < best {
				best = prev[j]
			}
			if cur[j-1] < best {
				best = cur[j-1]
			}
			// max(d, best); best may be +inf on the borders.
			if d > best {
				cur[j] = d
			} else {
				cur[j] = best
			}
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

// DistanceThreshold implements Measure. For Fréchet the threshold variant
// is particularly effective: any cell with point distance > tau is a wall,
// so we run the DP over the boolean "reachable within tau" relation and
// abandon when a full row is unreachable; the exact value is only computed
// when reachability holds.
func (f Frechet) DistanceThreshold(t, q []geom.Point, tau float64) (float64, bool) {
	m, n := len(t), len(q)
	if m == 0 || n == 0 {
		return math.Inf(1), false
	}
	// Quick necessary conditions.
	if t[0].Dist(q[0]) > tau || t[m-1].Dist(q[n-1]) > tau {
		return math.Inf(1), false
	}
	scratch := dppool.GetBools(2 * (n + 1))
	defer scratch.Release()
	prev, cur := scratch.S[:n+1], scratch.S[n+1:]
	for j := range prev {
		prev[j] = false
	}
	prev[0] = true
	for i := 1; i <= m; i++ {
		cur[0] = false
		ti := t[i-1]
		any := false
		for j := 1; j <= n; j++ {
			if prev[j-1] || prev[j] || cur[j-1] {
				cur[j] = ti.Dist(q[j-1]) <= tau
			} else {
				cur[j] = false
			}
			any = any || cur[j]
		}
		if !any {
			return math.Inf(1), false
		}
		prev, cur = cur, prev
	}
	if !prev[n] {
		return math.Inf(1), false
	}
	d := f.Distance(t, q)
	return d, d <= tau
}
