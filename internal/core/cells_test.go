package core

import (
	"math"

	"dita/internal/geom"
)

// The paper's cell-based compression bound (Lemma 5.6, Example 5.7), kept
// as test-only code: nothing on a query path computes a cell list. Under
// the band-limited threshold DP a cell-list comparison costs more per pair
// than the DP needs to reject the same pair (EXPERIMENTS.md, "the cell
// stage left the cascade"), so the Verifier goes length → coverage → DP.
// The soundness tests over these bounds are in verify_test.go and
// pamd_quick_test.go.

// Cell is one cell of the compressed trajectory representation
// (Section 5.3.3, cell-based compression): a square of side Size (stored
// on the CellList) centered at Center, covering Count of the trajectory's
// points.
type Cell struct {
	Center geom.Point
	Count  int
}

// CellList is a trajectory's cell compression with its side length D.
type CellList struct {
	D     float64
	Cells []Cell
}

// CompressCells builds the cell list for a trajectory: the first point
// opens a cell centered on itself; each subsequent point increments the
// first existing cell whose square contains it, or opens a new cell
// centered on itself.
func CompressCells(pts []geom.Point, d float64) CellList {
	cl := CellList{D: d}
	if d <= 0 {
		return cl
	}
	half := d / 2
	for _, p := range pts {
		placed := false
		for i := range cl.Cells {
			c := cl.Cells[i].Center
			if math.Abs(p.X-c.X) <= half && math.Abs(p.Y-c.Y) <= half {
				cl.Cells[i].Count++
				placed = true
				break
			}
		}
		if !placed {
			cl.Cells = append(cl.Cells, Cell{Center: p, Count: 1})
		}
	}
	return cl
}

// square returns the cell's square as an MBR.
func (c Cell) square(d float64) geom.MBR {
	half := d / 2
	return geom.MBR{
		Min: geom.Point{X: c.Center.X - half, Y: c.Center.Y - half},
		Max: geom.Point{X: c.Center.X + half, Y: c.Center.Y + half},
	}
}

// CellLowerBoundSum computes Lemma 5.6's lower bound on DTW:
//
//	Cell(T,Q) = Σ_{cT} (min_{cQ} dist(cT,cQ)) · |cT|
//
// where dist between cells is the minimum distance between their squares.
// Both lists must use the same D for the geometry to be meaningful, but
// the bound is sound for any D since squares only widen point sets.
// The accumulation abandons once the partial sum exceeds tau (a partial
// sum of non-negative terms is itself a lower bound); pass +Inf for the
// exact bound.
func CellLowerBoundSum(t, q CellList, tau float64) float64 {
	if len(t.Cells) == 0 || len(q.Cells) == 0 {
		return 0
	}
	sum := 0.0
	for _, ct := range t.Cells {
		sq := ct.square(t.D)
		best := math.Inf(1)
		for _, cq := range q.Cells {
			if d := sq.MinDistMBR(cq.square(q.D)); d < best {
				best = d
				if best == 0 {
					break
				}
			}
		}
		sum += best * float64(ct.Count)
		if sum > tau {
			return sum
		}
	}
	return sum
}

// CellLowerBoundMax computes the Fréchet form of the cell bound:
// Fréchet(T,Q) >= max_{cT} min_{cQ} dist(cT,cQ).
func CellLowerBoundMax(t, q CellList) float64 {
	if len(t.Cells) == 0 || len(q.Cells) == 0 {
		return 0
	}
	worst := 0.0
	for _, ct := range t.Cells {
		sq := ct.square(t.D)
		best := math.Inf(1)
		for _, cq := range q.Cells {
			if d := sq.MinDistMBR(cq.square(q.D)); d < best {
				best = d
				if best == 0 {
					break
				}
			}
		}
		if best > worst {
			worst = best
		}
	}
	return worst
}
