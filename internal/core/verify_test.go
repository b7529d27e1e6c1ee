package core

import (
	"math"
	"math/rand"
	"testing"

	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/traj"
)

// TestPaperExample57Cells reproduces Example 5.7: with D=2, T1 compresses
// to [t1,2; t3,1; t4,3], Q compresses to [q1,1; q2,4; q6,2; q7,1], and
// Cell(Q,T1) = 4 > τ = 3 prunes the pair.
func TestPaperExample57Cells(t *testing.T) {
	q := []geom.Point{{X: 1, Y: 1}, {X: 1, Y: 5}, {X: 1, Y: 4}, {X: 2, Y: 4}, {X: 2, Y: 5}, {X: 4, Y: 4}, {X: 5, Y: 6}, {X: 5, Y: 5}}
	tc := CompressCells(figT1, 2)
	wantT := []Cell{{Center: geom.Point{X: 1, Y: 1}, Count: 2}, {Center: geom.Point{X: 3, Y: 2}, Count: 1}, {Center: geom.Point{X: 4, Y: 4}, Count: 3}}
	if len(tc.Cells) != len(wantT) {
		t.Fatalf("T1 cells = %v, want %v", tc.Cells, wantT)
	}
	for i := range wantT {
		if tc.Cells[i] != wantT[i] {
			t.Errorf("T1 cell %d = %v, want %v", i, tc.Cells[i], wantT[i])
		}
	}
	qc := CompressCells(q, 2)
	wantQ := []Cell{{Center: geom.Point{X: 1, Y: 1}, Count: 1}, {Center: geom.Point{X: 1, Y: 5}, Count: 4}, {Center: geom.Point{X: 4, Y: 4}, Count: 2}, {Center: geom.Point{X: 5, Y: 6}, Count: 1}}
	if len(qc.Cells) != len(wantQ) {
		t.Fatalf("Q cells = %v, want %v", qc.Cells, wantQ)
	}
	for i := range wantQ {
		if qc.Cells[i] != wantQ[i] {
			t.Errorf("Q cell %d = %v, want %v", i, qc.Cells[i], wantQ[i])
		}
	}
	// Cell(Q,T1) = 0 + 1*4 + 0 + 0 = 4 > 3.
	if got := CellLowerBoundSum(qc, tc, math.Inf(1)); math.Abs(got-4) > 1e-9 {
		t.Errorf("Cell(Q,T1) = %v, want 4", got)
	}
}

// TestPaperExample55Coverage reproduces Example 5.5: EMBR_{T5,3} cannot
// cover MBR_Q, pruning (T5, Q) even though OPAMD passes.
func TestPaperExample55Coverage(t *testing.T) {
	q := []geom.Point{{X: 0, Y: 4}, {X: 0, Y: 5}, {X: 3, Y: 7}, {X: 3, Y: 9}, {X: 3, Y: 11}, {X: 3, Y: 3}, {X: 7, Y: 5}}
	tau := 3.0
	mbrQ := geom.MBROf(q)
	embrT5 := geom.MBROf(figT5).Expand(tau)
	if embrT5.Covers(mbrQ) {
		t.Fatal("paper example: EMBR_{T5,3} must NOT cover MBR_Q")
	}
	// The verifier must prune this pair without an exact computation.
	v := NewVerifier(measure.DTW{}, q, tau, 2)
	tr := &traj.T{ID: 5, Points: figT5}
	if _, ok := v.Verify(tr, newTrajMeta(tr)); ok {
		t.Error("verifier accepted the paper's pruned pair")
	}
	if v.CoveragePruned.Load() != 1 {
		t.Errorf("coverage filter should have fired, coverage=%d", v.CoveragePruned.Load())
	}
}

// Cell lower bounds must never exceed the true distances.
func TestCellBoundsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		a := randTrajPts(rng, 2+rng.Intn(15))
		b := randTrajPts(rng, 2+rng.Intn(15))
		d := 0.1 + rng.Float64()*3
		ca, cb := CompressCells(a, d), CompressCells(b, d)
		dtw := measure.DTW{}.Distance(a, b)
		fre := measure.Frechet{}.Distance(a, b)
		if lb := CellLowerBoundSum(ca, cb, math.Inf(1)); lb > dtw+1e-9 {
			t.Fatalf("sum cell bound %v > DTW %v (D=%v)", lb, dtw, d)
		}
		if lb := CellLowerBoundSum(cb, ca, math.Inf(1)); lb > dtw+1e-9 {
			t.Fatalf("reverse sum cell bound %v > DTW %v", lb, dtw)
		}
		if lb := CellLowerBoundMax(ca, cb); lb > fre+1e-9 {
			t.Fatalf("max cell bound %v > Frechet %v", lb, fre)
		}
	}
}

// Cell counts must preserve the number of points.
func TestCompressCellsCountsPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		pts := randTrajPts(rng, 1+rng.Intn(40))
		cl := CompressCells(pts, 0.5+rng.Float64())
		total := 0
		for _, c := range cl.Cells {
			total += c.Count
		}
		if total != len(pts) {
			t.Fatalf("cell counts %d != points %d", total, len(pts))
		}
		// Every point is inside the cell that counted it... at minimum,
		// inside SOME cell's square.
		for _, p := range pts {
			inside := false
			for _, c := range cl.Cells {
				if c.square(cl.D).Contains(p) {
					inside = true
					break
				}
			}
			if !inside {
				t.Fatalf("point %v outside all cells", p)
			}
		}
	}
	if cl := CompressCells(nil, 1); len(cl.Cells) != 0 {
		t.Error("empty trajectory should have no cells")
	}
	if cl := CompressCells([]geom.Point{{X: 1, Y: 1}}, 0); len(cl.Cells) != 0 {
		t.Error("non-positive D should disable compression")
	}
}

// The verification cascade must be exact: accept iff distance <= tau.
func TestVerifierExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	measures := []measure.Measure{
		measure.DTW{}, measure.Frechet{}, measure.EDR{Eps: 0.5},
		measure.LCSS{Eps: 0.5, Delta: 3}, measure.ERP{}, measure.Hausdorff{},
	}
	for _, m := range measures {
		for i := 0; i < 300; i++ {
			a := randTrajPts(rng, 2+rng.Intn(12))
			b := randTrajPts(rng, 2+rng.Intn(12))
			var tau float64
			if m.Accumulation() == measure.AccumEdit {
				tau = float64(rng.Intn(10))
			} else {
				tau = rng.Float64() * 10
			}
			exact := m.Distance(a, b)
			if math.Abs(exact-tau) < 1e-9 {
				continue
			}
			v := NewVerifier(m, b, tau, 1)
			tr := &traj.T{Points: a}
			_, ok := v.Verify(tr, newTrajMeta(tr))
			if want := exact <= tau; ok != want {
				t.Fatalf("%s: verifier decision %v, want %v (exact=%v tau=%v)",
					m.Name(), ok, want, exact, tau)
			}
		}
	}
}

// The cheap filters must actually fire on well-separated data.
func TestVerifierFiltersFire(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Query in one corner, candidates far away.
	q := randTrajPts(rng, 10)
	v := NewVerifier(measure.DTW{}, q, 0.5, 1)
	for i := 0; i < 50; i++ {
		far := make([]geom.Point, 8)
		for j := range far {
			far[j] = geom.Point{X: 1000 + rng.Float64(), Y: 1000 + rng.Float64()}
		}
		tr := &traj.T{Points: far}
		if _, ok := v.Verify(tr, newTrajMeta(tr)); ok {
			t.Fatal("far candidate accepted")
		}
	}
	if v.CoveragePruned.Load() == 0 {
		t.Error("coverage filter never fired on far candidates")
	}
	if v.Verified.Load() != 0 {
		t.Errorf("exact verification ran %d times; cheap filters should have pruned all", v.Verified.Load())
	}
}
