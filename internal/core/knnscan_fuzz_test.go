package core

import (
	"math"
	"testing"

	"dita/internal/geom"
	"dita/internal/measure"
)

// FuzzKNNPointBound holds the kNN scan's two-sided point bound to
// bound <= Distance bit for bit, with no tolerance, for every registry
// measure that has a box bound — the premise that lets the scan reject a
// candidate whose bound exceeds τ without changing an answer, ties at τ
// included. The first byte sizes the query and the second the member; the
// third picks the coordinate grid: multiples of 0.1 near the origin, whose
// inputs are full of exact duplicates and stationary stretches, or steps of
// 7e-4 around a Beijing-like offset, whose coordinate gaps round.
func FuzzKNNPointBound(f *testing.F) {
	// Stationary duplicates: every step of every path costs exactly d.
	f.Add([]byte{3, 3, 0, 9, 9, 9, 9, 9, 9, 9, 9, 20, 20, 20, 20, 20, 20, 20, 20})
	f.Add([]byte{4, 6, 1, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 250, 250, 250, 250, 250, 250, 250, 250, 250, 250, 250, 250, 250, 250})
	// A member equal to the query, and the query reversed.
	f.Add([]byte{3, 3, 1, 1, 2, 3, 5, 8, 13, 21, 34, 1, 2, 3, 5, 8, 13, 21, 34})
	f.Add([]byte{3, 3, 0, 1, 2, 3, 5, 8, 13, 21, 34, 21, 34, 8, 13, 3, 5, 1, 2})
	// A one-point query, whose box has no diagonal.
	f.Add([]byte{0, 5, 1, 100, 156, 0, 0, 7, 7, 14, 14, 21, 21, 28, 28, 35, 35})
	var ms []measure.Measure
	for _, name := range []string{"DTW", "FRECHET", "EDR", "LCSS", "ERP", "HAUSDORFF"} {
		m, err := measure.ByName(name, 0.3, 2)
		if err != nil {
			f.Fatal(err)
		}
		if boxBoundOf(m) != boxNone {
			ms = append(ms, m)
		}
	}
	if len(ms) != 3 {
		f.Fatalf("%d registry measures have a box bound, want DTW, Fréchet and Hausdorff", len(ms))
	}
	inf := math.Inf(1)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		qn, tn := 1+int(data[0])%8, 1+int(data[1])%8
		base, step := geom.Point{}, 0.1
		if data[2]%2 == 1 {
			base, step = geom.Point{X: 116.4, Y: 39.9}, 7e-4
		}
		var pts []geom.Point
		for i := 3; i+1 < len(data) && len(pts) < qn+tn; i += 2 {
			pts = append(pts, geom.Point{X: base.X + float64(int8(data[i]))*step, Y: base.Y + float64(int8(data[i+1]))*step})
		}
		if len(pts) < qn+tn {
			return
		}
		q, tr := pts[:qn], pts[qn:]
		qMBR, tMBR := geom.MBROf(q), geom.MBROf(tr)
		for _, m := range ms {
			b, d := boxBoundOf(m), m.Distance(tr, q)
			qSide, tSide := b.pointSide(q, tMBR, inf), b.pointSide(tr, qMBR, inf)
			if qSide > d || tSide > d {
				t.Fatalf("%s: point bound q→T %v, T→q %v above Distance %v (q=%v t=%v)", m.Name(), qSide, tSide, d, q, tr)
			}
			// Abandoning is exact: a side stops above τ only when its full
			// value is above τ, and never at τ itself.
			for _, tau := range []float64{d, qSide, tSide, 0} {
				if (b.pointSide(q, tMBR, tau) > tau) != (qSide > tau) || (b.pointSide(tr, qMBR, tau) > tau) != (tSide > tau) {
					t.Fatalf("%s: an abandoned side disagrees with the full one at τ=%v", m.Name(), tau)
				}
			}
			s := newKNNScan(m, q, NewKNNAcc(1), inf)
			if s.pointPrunes(tr, tMBR, d) {
				t.Fatalf("%s: the scan rejects a member at τ = its own Distance %v", m.Name(), d)
			}
		}
	})
}
