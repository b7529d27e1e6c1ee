// Package pivot implements DITA's pivot-point selection (Section 4.1.2).
//
// For a trajectory T, K interior points with the largest weights are chosen
// as pivots T_P ⊂ T \ {t1, tm}; together with the first and last point they
// form the indexing points T_I = (t1, tm, tP1, ..., tPK) that the local trie
// index is built on and that the PAMD/OPAMD lower bounds are computed from.
//
// Three weighting strategies are provided, matching the paper:
//
//   - Inflection: weight(b) = π − ∠abc for consecutive a, b, c — corners of
//     the route score high.
//   - Neighbor: weight(b) = dist(a, b) for consecutive a, b — points far
//     from their predecessor score high.
//   - FirstLast: weight(b) = max(dist(b, t1), dist(b, tm)) — points far
//     from both endpoints score high.
//
// The index and query pipeline are orthogonal to the strategy choice; the
// Figure 12 ablation compares them.
package pivot

import (
	"fmt"
	"math"
	"slices"

	"dita/internal/geom"
)

// Strategy selects pivot points for a trajectory.
type Strategy int

const (
	// Neighbor is the neighbor-distance strategy — the paper's best
	// performer (Appendix B, Figure 12) and the default.
	Neighbor Strategy = iota
	// Inflection is the inflection-point (turning-angle) strategy.
	Inflection
	// FirstLast is the first/last-distance strategy.
	FirstLast
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Neighbor:
		return "Neighbor"
	case Inflection:
		return "Inflection"
	case FirstLast:
		return "First/Last"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy maps a case-insensitive name to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch {
	case eq(name, "neighbor"):
		return Neighbor, nil
	case eq(name, "inflection"):
		return Inflection, nil
	case eq(name, "firstlast"), eq(name, "first/last"):
		return FirstLast, nil
	}
	return 0, fmt.Errorf("pivot: unknown strategy %q", name)
}

func eq(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Select returns the indices (into pts, strictly increasing) of up to k
// pivot points chosen from the interior pts[1:len-1] by the strategy: the k
// largest weights, ties going to the earlier point. Fewer than k indices are
// returned when the interior is smaller than k. A NaN weight (a NaN or
// infinite coordinate) ranks below every number.
func Select(pts []geom.Point, k int, s Strategy) []int {
	m := len(pts)
	interior := m - 2
	if k <= 0 || interior <= 0 {
		return nil
	}
	if k > interior {
		k = interior
	}
	// top holds the best weights seen so far, best first. The interior is
	// walked in position order, so a point that ties a kept one is the later
	// of the two and goes behind it: one strict comparison is the whole order.
	type wi struct {
		w float64
		i int
	}
	var buf [8]wi
	top := buf[:0]
	if k > len(buf) {
		top = make([]wi, 0, k)
	}
	for i := 1; i < m-1; i++ {
		w := weight(pts, i, s)
		if math.IsNaN(w) {
			w = math.Inf(-1)
		}
		if len(top) == k {
			if !(w > top[k-1].w) {
				continue
			}
		} else {
			top = append(top, wi{})
		}
		j := len(top) - 1
		for ; j > 0 && w > top[j-1].w; j-- {
			top[j] = top[j-1]
		}
		top[j] = wi{w, i}
	}
	idx := make([]int, k)
	for j, e := range top {
		idx[j] = e.i
	}
	slices.Sort(idx)
	return idx
}

// Points returns the pivot points themselves, in trajectory order.
func Points(pts []geom.Point, k int, s Strategy) []geom.Point {
	idx := Select(pts, k, s)
	out := make([]geom.Point, len(idx))
	for i, j := range idx {
		out[i] = pts[j]
	}
	return out
}

// IndexingPoints returns the paper's T_I sequence: (t1, tm, tP1, ..., tPK).
// The result always has length 2+min(k, len(pts)-2); trajectories shorter
// than k+2 points contribute fewer pivots.
func IndexingPoints(pts []geom.Point, k int, s Strategy) []geom.Point {
	m := len(pts)
	out := make([]geom.Point, 0, k+2)
	out = append(out, pts[0], pts[m-1])
	for _, j := range Select(pts, k, s) {
		out = append(out, pts[j])
	}
	return out
}

func weight(pts []geom.Point, i int, s Strategy) float64 {
	switch s {
	case Inflection:
		return math.Pi - angle(pts[i-1], pts[i], pts[i+1])
	case Neighbor:
		return pts[i-1].Dist(pts[i])
	case FirstLast:
		return math.Max(pts[i].Dist(pts[0]), pts[i].Dist(pts[len(pts)-1]))
	}
	return 0
}

// angle returns ∠abc in [0, π]: the interior angle at b of the polyline
// a-b-c. A straight continuation has angle π (weight 0); a U-turn has
// angle 0 (weight π).
func angle(a, b, c geom.Point) float64 {
	u := a.Sub(b)
	v := c.Sub(b)
	nu := math.Hypot(u.X, u.Y)
	nv := math.Hypot(v.X, v.Y)
	if nu == 0 || nv == 0 {
		return math.Pi // degenerate: treat as straight, weight 0
	}
	cos := (u.X*v.X + u.Y*v.Y) / (nu * nv)
	if cos > 1 {
		cos = 1
	} else if cos < -1 {
		cos = -1
	}
	return math.Acos(cos)
}
