package measure

import (
	"math"
	"math/rand"
	"testing"

	"dita/internal/geom"
)

// The five example trajectories of Figure 1 in the paper.
func paperTrajs() map[string][]geom.Point {
	return map[string][]geom.Point{
		"T1": {{X: 1, Y: 1}, {X: 1, Y: 2}, {X: 3, Y: 2}, {X: 4, Y: 4}, {X: 4, Y: 5}, {X: 5, Y: 5}},
		"T2": {{X: 0, Y: 1}, {X: 0, Y: 2}, {X: 4, Y: 2}, {X: 4, Y: 4}, {X: 4, Y: 5}, {X: 5, Y: 5}},
		"T3": {{X: 1, Y: 1}, {X: 4, Y: 1}, {X: 4, Y: 3}, {X: 4, Y: 5}, {X: 4, Y: 6}, {X: 5, Y: 6}},
		"T4": {{X: 0, Y: 4}, {X: 0, Y: 5}, {X: 3, Y: 3}, {X: 3, Y: 7}, {X: 7, Y: 5}},
		"T5": {{X: 0, Y: 4}, {X: 0, Y: 5}, {X: 3, Y: 7}, {X: 3, Y: 3}, {X: 7, Y: 5}},
	}
}

// TestPaperTable1 reproduces the paper's Table 1: DTW(T1, T3) = 5.41
// (= w11 + w21 + w32 + w43 + w54 + w55 + w66).
func TestPaperTable1(t *testing.T) {
	ts := paperTrajs()
	got := DTW{}.Distance(ts["T1"], ts["T3"])
	// Per the matrix in Table 1: w11 + w21 + w32 + w43 + w54 + w55 + w66
	// = 0 + 1 + 1.41 + 1 + 0 + 1 + 1.
	want := 0.0 + 1 + math.Sqrt2 + 1 + 0 + 1 + 1
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("DTW(T1,T3) = %v, want %v (paper: 5.41)", got, want)
	}
	if math.Abs(got-5.41) > 0.005 {
		t.Errorf("DTW(T1,T3) = %v, paper reports 5.41", got)
	}
}

// TestPaperExample26 reproduces Example 2.6: with Q = T1 and τ = 3, the
// similar trajectories are exactly {T1, T2}.
func TestPaperExample26(t *testing.T) {
	ts := paperTrajs()
	q := ts["T1"]
	var similar []string
	for _, name := range []string{"T1", "T2", "T3", "T4", "T5"} {
		if (DTW{}).Distance(ts[name], q) <= 3 {
			similar = append(similar, name)
		}
	}
	if len(similar) != 2 || similar[0] != "T1" || similar[1] != "T2" {
		t.Errorf("similar to T1 at τ=3: %v, want [T1 T2]", similar)
	}
}

// TestPaperFrechet reproduces Appendix A: Fréchet(T1, T3) = 1.41.
func TestPaperFrechet(t *testing.T) {
	ts := paperTrajs()
	got := Frechet{}.Distance(ts["T1"], ts["T3"])
	if math.Abs(got-math.Sqrt2) > 1e-9 {
		t.Errorf("Frechet(T1,T3) = %v, want sqrt(2) (paper: 1.41)", got)
	}
}

// TestPaperEDR reproduces Appendix A: EDR_{ε=1}(T1, T3) = 2.
func TestPaperEDR(t *testing.T) {
	ts := paperTrajs()
	got := EDR{Eps: 1}.Distance(ts["T1"], ts["T3"])
	if got != 2 {
		t.Errorf("EDR(T1,T3) = %v, want 2", got)
	}
}

// TestPaperLCSS checks the Appendix A example LCSS_{δ=1,ε=1}(T1, T3).
//
// The paper's prose says the value is 2, but its own Definition A.3
// recursion evaluates to 4 on this pair: the maximal windowed common
// subsequence has 4 matches ((t1,q1), (t4,q3), (t5,q4), (t6,q6)), the
// recursion charges 1 per skipped point on either side (6-4 skips in T plus
// 6-4 in Q = 4), while the prose's 2 equals min(m,n) - similarity. We
// implement the formal definition and expose the similarity separately.
func TestPaperLCSS(t *testing.T) {
	ts := paperTrajs()
	l := LCSS{Eps: 1, Delta: 1}
	if got := l.Distance(ts["T1"], ts["T3"]); got != 4 {
		t.Errorf("LCSS Definition A.3 distance = %v, want 4", got)
	}
	if got := l.Similarity(ts["T1"], ts["T3"]); got != 4 {
		t.Errorf("LCSS similarity = %v, want 4", got)
	}
	// The prose value: min(m,n) - similarity = 6 - 4 = 2.
	if got := float64(6) - float64(l.Similarity(ts["T1"], ts["T3"])); got != 2 {
		t.Errorf("min(m,n)-sim = %v, want 2 (the paper's prose value)", got)
	}
}

func TestDTWBaseCases(t *testing.T) {
	single := []geom.Point{{X: 0, Y: 0}}
	multi := []geom.Point{{X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 0}}
	// m == 1: DTW = sum of dist(t1, qj).
	if got := (DTW{}).Distance(single, multi); math.Abs(got-6) > 1e-12 {
		t.Errorf("DTW(single, multi) = %v, want 6", got)
	}
	if got := (DTW{}).Distance(multi, single); math.Abs(got-6) > 1e-12 {
		t.Errorf("DTW(multi, single) = %v, want 6", got)
	}
	if got := (DTW{}).Distance(nil, multi); !math.IsInf(got, 1) {
		t.Errorf("DTW(empty, multi) = %v, want +Inf", got)
	}
	same := []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}
	if got := (DTW{}).Distance(same, same); got != 0 {
		t.Errorf("DTW(T,T) = %v, want 0", got)
	}
}

func TestFrechetBaseCases(t *testing.T) {
	single := []geom.Point{{X: 0, Y: 0}}
	multi := []geom.Point{{X: 1, Y: 0}, {X: 3, Y: 0}}
	if got := (Frechet{}).Distance(single, multi); math.Abs(got-3) > 1e-12 {
		t.Errorf("Frechet(single, multi) = %v, want 3", got)
	}
	same := []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}
	if got := (Frechet{}).Distance(same, same); got != 0 {
		t.Errorf("Frechet(T,T) = %v, want 0", got)
	}
}

func TestEDRBaseCases(t *testing.T) {
	e := EDR{Eps: 0.1}
	pts := []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}
	if got := e.Distance(nil, pts); got != 2 {
		t.Errorf("EDR(empty, 2pts) = %v, want 2", got)
	}
	if got := e.Distance(pts, nil); got != 2 {
		t.Errorf("EDR(2pts, empty) = %v, want 2", got)
	}
	if got := e.Distance(pts, pts); got != 0 {
		t.Errorf("EDR(T,T) = %v, want 0", got)
	}
}

func TestLCSSWindow(t *testing.T) {
	// Points match spatially but the window forbids far-apart indices.
	a := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 9, Y: 9}}
	b := []geom.Point{{X: 9, Y: 9}, {X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}
	// With a wide window the sequences share the common part.
	wide := LCSS{Eps: 0.01, Delta: 10}.Distance(a, b)
	tight := LCSS{Eps: 0.01, Delta: 0}.Distance(a, b)
	if wide >= tight {
		t.Errorf("wide window distance %v should be < tight %v", wide, tight)
	}
}

func TestERPMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := ERP{}
	for i := 0; i < 200; i++ {
		a := randTraj(rng, 2+rng.Intn(8))
		b := randTraj(rng, 2+rng.Intn(8))
		c := randTraj(rng, 2+rng.Intn(8))
		dab, dba := e.Distance(a, b), e.Distance(b, a)
		if math.Abs(dab-dba) > 1e-9 {
			t.Fatalf("ERP not symmetric: %v vs %v", dab, dba)
		}
		if d := e.Distance(a, a); d > 1e-9 {
			t.Fatalf("ERP(a,a) = %v", d)
		}
		dac, dbc := e.Distance(a, c), e.Distance(b, c)
		if dac > dab+dbc+1e-9 {
			t.Fatalf("ERP triangle inequality violated: d(a,c)=%v > d(a,b)+d(b,c)=%v", dac, dab+dbc)
		}
	}
}

func TestFrechetIsMetricOnSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := Frechet{}
	for i := 0; i < 200; i++ {
		a := randTraj(rng, 2+rng.Intn(6))
		b := randTraj(rng, 2+rng.Intn(6))
		c := randTraj(rng, 2+rng.Intn(6))
		if math.Abs(f.Distance(a, b)-f.Distance(b, a)) > 1e-9 {
			t.Fatal("Frechet not symmetric")
		}
		if f.Distance(a, c) > f.Distance(a, b)+f.Distance(b, c)+1e-9 {
			t.Fatal("Frechet triangle inequality violated")
		}
	}
}

func TestDTWSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 200; i++ {
		a := randTraj(rng, 2+rng.Intn(10))
		b := randTraj(rng, 2+rng.Intn(10))
		if math.Abs(DTW{}.Distance(a, b)-DTW{}.Distance(b, a)) > 1e-9 {
			t.Fatal("DTW not symmetric")
		}
	}
}

func randTraj(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	x, y := rng.Float64()*10, rng.Float64()*10
	for i := range pts {
		x += rng.NormFloat64()
		y += rng.NormFloat64()
		pts[i] = geom.Point{X: x, Y: y}
	}
	return pts
}

// Threshold variants must agree with the exact distance: accept iff
// distance <= tau, and report a value that is a lower bound when rejecting.
func TestThresholdAgreesWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	measures := []Measure{DTW{}, Frechet{}, EDR{Eps: 0.5}, LCSS{Eps: 0.5, Delta: 3}, ERP{}}
	for _, m := range measures {
		for i := 0; i < 500; i++ {
			a := randTraj(rng, 2+rng.Intn(12))
			b := randTraj(rng, 2+rng.Intn(12))
			exact := m.Distance(a, b)
			for _, tau := range []float64{exact * 0.5, exact * 1.001, exact * 1.5, 0.1, 5, 20} {
				got, ok := m.DistanceThreshold(a, b, tau)
				if math.Abs(exact-tau) < 1e-9*(1+exact) {
					continue // borderline: either decision is acceptable under fp rounding
				}
				if wantOK := exact <= tau; ok != wantOK {
					t.Fatalf("%s: threshold decision wrong: exact=%v tau=%v ok=%v", m.Name(), exact, tau, ok)
				}
				if ok && math.Abs(got-exact) > 1e-6*(1+exact) {
					t.Fatalf("%s: accepted value %v != exact %v", m.Name(), got, exact)
				}
				if !ok && got <= tau-1e-9 {
					t.Fatalf("%s: rejected but reported value %v <= tau %v", m.Name(), got, tau)
				}
			}
		}
	}
}

// AMD (Lemma 4.1) must lower-bound DTW.
func TestAMDLowerBoundsDTW(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 1000; i++ {
		a := randTraj(rng, 2+rng.Intn(12))
		b := randTraj(rng, 2+rng.Intn(12))
		amd := AMD(a, b)
		dtw := DTW{}.Distance(a, b)
		if amd > dtw+1e-9 {
			t.Fatalf("AMD %v > DTW %v", amd, dtw)
		}
	}
}

// Length lower bounds must hold for the edit measures.
func TestLengthLowerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for i := 0; i < 300; i++ {
		a := randTraj(rng, 2+rng.Intn(10))
		b := randTraj(rng, 2+rng.Intn(10))
		for _, m := range []Measure{EDR{Eps: 0.5}, LCSS{Eps: 0.5, Delta: 2}} {
			lb := m.LengthLowerBound(len(a), len(b))
			if d := m.Distance(a, b); lb > d+1e-9 {
				t.Fatalf("%s length bound %v > distance %v", m.Name(), lb, d)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"DTW", "dtw", "Frechet", "FRECHET", "EDR", "LCSS", "ERP"} {
		m, err := ByName(name, 0.1, 2)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if m.Name() == "" {
			t.Errorf("ByName(%q): empty name", name)
		}
	}
	if _, err := ByName("euclid", 0, 0); err == nil {
		t.Error("ByName should reject unknown measures")
	}
	if m, _ := ByName("edr", 0.25, 0); m.Epsilon() != 0.25 {
		t.Error("ByName should propagate epsilon")
	}
}

func TestAccumulationKinds(t *testing.T) {
	cases := []struct {
		m    Measure
		want Accumulation
	}{
		{DTW{}, AccumSum},
		{ERP{}, AccumSum},
		{Frechet{}, AccumMax},
		{EDR{Eps: 1}, AccumEdit},
		{LCSS{Eps: 1, Delta: 1}, AccumEdit},
	}
	for _, c := range cases {
		if got := c.m.Accumulation(); got != c.want {
			t.Errorf("%s accumulation = %v, want %v", c.m.Name(), got, c.want)
		}
	}
	// Endpoint anchoring and capability flags.
	if !(DTW{}).AlignsEndpoints() || !(Frechet{}).AlignsEndpoints() {
		t.Error("DTW and Frechet anchor endpoints")
	}
	if (EDR{}).AlignsEndpoints() || (LCSS{}).AlignsEndpoints() || (ERP{}).AlignsEndpoints() {
		t.Error("edit measures and ERP must not anchor endpoints")
	}
	if _, ok := (ERP{}).GapPoint(); !ok {
		t.Error("ERP has a gap point")
	}
	if _, ok := (DTW{}).GapPoint(); ok {
		t.Error("DTW has no gap point")
	}
}

// DTW with a tau larger than the distance must return the exact distance.
func TestDTWThresholdExactValue(t *testing.T) {
	ts := paperTrajs()
	d, ok := DTW{}.DistanceThreshold(ts["T1"], ts["T3"], 100)
	if !ok || math.Abs(d-5.4142135) > 1e-5 {
		t.Errorf("DistanceThreshold = %v, %v; want 5.414, true", d, ok)
	}
	_, ok = DTW{}.DistanceThreshold(ts["T1"], ts["T3"], 3)
	if ok {
		t.Error("DTW(T1,T3) = 5.41 should be rejected at tau=3")
	}
}

func TestHausdorff(t *testing.T) {
	a := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}
	b := []geom.Point{{X: 0, Y: 1}, {X: 2, Y: 1}}
	// Directed a->b: middle point (1,0) is sqrt(2) from both b points.
	// Directed b->a: each b point is 1 from its aligned a point.
	if got := (Hausdorff{}).Distance(a, b); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("Hausdorff = %v, want sqrt(2)", got)
	}
	// Order-free: reversing a trajectory changes nothing.
	rev := []geom.Point{{X: 2, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 0}}
	if got := (Hausdorff{}).Distance(rev, b); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("reversed Hausdorff = %v", got)
	}
	if d := (Hausdorff{}).Distance(a, a); d != 0 {
		t.Errorf("self distance = %v", d)
	}
	if got := (Hausdorff{}).Distance(nil, b); !math.IsInf(got, 1) {
		t.Errorf("empty Hausdorff = %v", got)
	}
	if m, err := ByName("hausdorff", 0, 0); err != nil || m.Name() != "HAUSDORFF" {
		t.Errorf("ByName hausdorff: %v %v", m, err)
	}
}

func TestHausdorffMetricAndThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	h := Hausdorff{}
	for i := 0; i < 300; i++ {
		a := randTraj(rng, 2+rng.Intn(8))
		b := randTraj(rng, 2+rng.Intn(8))
		c := randTraj(rng, 2+rng.Intn(8))
		if math.Abs(h.Distance(a, b)-h.Distance(b, a)) > 1e-9 {
			t.Fatal("Hausdorff not symmetric")
		}
		if h.Distance(a, c) > h.Distance(a, b)+h.Distance(b, c)+1e-9 {
			t.Fatal("Hausdorff triangle inequality violated")
		}
		exact := h.Distance(a, b)
		for _, tau := range []float64{exact * 0.5, exact * 1.5, 3} {
			if math.Abs(exact-tau) < 1e-9 {
				continue
			}
			got, ok := h.DistanceThreshold(a, b, tau)
			if want := exact <= tau; ok != want {
				t.Fatalf("threshold decision wrong: exact=%v tau=%v", exact, tau)
			}
			if !ok && got <= tau {
				t.Fatalf("rejected with value %v <= tau %v", got, tau)
			}
		}
	}
}

// Hausdorff lower-bounds Fréchet (a warping alignment is one particular
// point matching, so the unconstrained min can only be smaller).
func TestHausdorffLowerBoundsFrechet(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 300; i++ {
		a := randTraj(rng, 2+rng.Intn(8))
		b := randTraj(rng, 2+rng.Intn(8))
		if (Hausdorff{}).Distance(a, b) > (Frechet{}).Distance(a, b)+1e-9 {
			t.Fatal("Hausdorff > Frechet")
		}
	}
}
