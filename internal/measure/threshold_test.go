package measure

import (
	"math"
	"math/rand"
	"testing"

	"dita/internal/gen"
	"dita/internal/geom"
)

// checkThresholdContract asserts the Measure contract for one pair at one
// tau: accept ⇔ Distance <= tau, an accepted value is Distance's bits, a
// rejected value exceeds tau. It returns the kernel's answer.
func checkThresholdContract(t testing.TB, m Measure, a, b []geom.Point, tau float64) (float64, bool) {
	t.Helper()
	exact := m.Distance(a, b)
	got, ok := m.DistanceThreshold(a, b, tau)
	if ok != (exact <= tau) {
		t.Fatalf("%s m=%d n=%d tau=%v exact=%v: accepted=%v", m.Name(), len(a), len(b), tau, exact, ok)
	}
	if ok && math.Float64bits(got) != math.Float64bits(exact) {
		t.Fatalf("%s m=%d n=%d tau=%v: accepted value %v is not Distance's %v", m.Name(), len(a), len(b), tau, got, exact)
	}
	if !ok && !(got > tau) {
		t.Fatalf("%s m=%d n=%d tau=%v exact=%v: rejected with value %v <= tau", m.Name(), len(a), len(b), tau, exact, got)
	}
	return got, ok
}

// checkDTWThresholdTaus holds the DTW kernel to the contract at the
// thresholds where a band-limited DP can go wrong: zero, the distance itself
// and the floats on either side of it, and values well inside and outside.
func checkDTWThresholdTaus(t testing.TB, a, b []geom.Point, extra ...float64) {
	t.Helper()
	exact := DTW{}.Distance(a, b)
	taus := append([]float64{
		0, exact, math.Nextafter(exact, math.Inf(-1)), math.Nextafter(exact, math.Inf(1)),
		exact * 0.5, exact * 0.999, exact * 1.001, exact * 2, math.Inf(1),
	}, extra...)
	for _, tau := range taus {
		if tau >= 0 {
			checkThresholdContract(t, DTW{}, a, b, tau)
		}
	}
}

// jitter copies pts with Gaussian noise of the given standard deviation —
// a route mate of the original.
func jitter(rng *rand.Rand, pts []geom.Point, std float64) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Point{X: p.X + rng.NormFloat64()*std, Y: p.Y + rng.NormFloat64()*std}
	}
	return out
}

func TestDTWThresholdMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 400; i++ {
		a := randTraj(rng, 1+rng.Intn(40))
		b := randTraj(rng, 1+rng.Intn(40))
		pairs := [][2][]geom.Point{
			{a, b},                               // unrelated random walks
			{a, a},                               // identical: distance 0, accepted at tau = 0
			{a, jitter(rng, a, 1e-3)},            // route mate: narrow band, every row live
			{a, jitter(rng, a, 0.3)},             // noisy mate: band a few columns wide
			{a, a[:1+rng.Intn(len(a))]},          // truncated copy
			{a[rng.Intn(len(a)):], a},            // copy missing its head
			{a, b[:1]},                           // n = 1
			{a[:1], b},                           // m = 1
			{a[:1], a[:1]},                       // 1×1
			{a, append(a[:len(a):len(a)], b...)}, // shared prefix, then diverges
		}
		for _, p := range pairs {
			checkDTWThresholdTaus(t, p[0], p[1], rng.Float64()*30)
		}
	}
}

// Coordinates on a coarse grid make many cells tie exactly, at the threshold
// and between the three predecessors.
func TestDTWThresholdGridTies(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	grid := func(n int) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: float64(rng.Intn(4)), Y: float64(rng.Intn(4))}
		}
		return pts
	}
	for i := 0; i < 2000; i++ {
		a, b := grid(1+rng.Intn(12)), grid(1+rng.Intn(12))
		checkDTWThresholdTaus(t, a, b, float64(rng.Intn(12)))
	}
}

func TestDTWThresholdEmpty(t *testing.T) {
	pts := []geom.Point{{X: 1, Y: 1}}
	for _, p := range [][2][]geom.Point{{nil, pts}, {pts, nil}, {nil, nil}} {
		if d, ok := (DTW{}).DistanceThreshold(p[0], p[1], math.Inf(1)); ok || !math.IsInf(d, 1) {
			t.Errorf("empty input: got %v, %v; want +Inf, false", d, ok)
		}
	}
}

// FuzzDTWThreshold derives two point lists from bytes (a coarse grid, so
// ties are common) and checks the kernel's contract at the fuzzed tau and at
// the distance's own neighbourhood.
func FuzzDTWThreshold(f *testing.F) {
	f.Add([]byte{0, 0, 16, 16, 32, 32}, []byte{0, 0, 16, 17, 33, 32}, 0.5)
	f.Add([]byte{1, 2}, []byte{1, 2, 1, 2, 9, 9}, 0.0)
	f.Add([]byte{200, 10, 3, 77, 5, 5, 5, 5}, []byte{5, 5}, 30.0)
	f.Fuzz(func(t *testing.T, ab, bb []byte, tau float64) {
		a, b := fuzzPoints(ab), fuzzPoints(bb)
		if len(a) == 0 || len(b) == 0 || math.IsNaN(tau) {
			return
		}
		checkDTWThresholdTaus(t, a, b, math.Abs(tau))
	})
}

// fuzzPoints reads (x, y) byte pairs as points on a 1/8 grid, at most 64.
func fuzzPoints(b []byte) []geom.Point {
	n := min(len(b)/2, 64)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(b[2*i]) / 8, Y: float64(b[2*i+1]) / 8}
	}
	return pts
}

// The Measure contract every caller that ranks by distance relies on: for
// each measure, DistanceThreshold accepts exactly when Distance <= tau and
// then returns Distance's bits — at the distance itself and at the floats on
// either side of it too.
func TestThresholdContractAllMeasures(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, r := range registry {
		m := r.make(0.5, 3)
		for i := 0; i < 300; i++ {
			a := randTraj(rng, 1+rng.Intn(14))
			b := jitter(rng, a, 0.4)
			if i%2 == 0 {
				b = randTraj(rng, 1+rng.Intn(14))
			}
			exact := m.Distance(a, b)
			for _, tau := range []float64{
				exact, math.Nextafter(exact, math.Inf(-1)), math.Nextafter(exact, math.Inf(1)),
				exact * 0.7, exact * 1.3, rng.Float64() * 10,
			} {
				if tau < 0 {
					continue
				}
				checkThresholdContract(t, m, a, b, tau)
			}
		}
	}
}

// checkSymmetric asserts the half of the Measure contract a self-join's
// mirrored pairs rely on: both argument orders give the same distance bits,
// and at the distance and the floats on either side of it the threshold
// kernel accepts in both orders or in neither, with those bits.
func checkSymmetric(t testing.TB, m Measure, a, b []geom.Point) {
	t.Helper()
	ab, ba := m.Distance(a, b), m.Distance(b, a)
	if math.Float64bits(ab) != math.Float64bits(ba) {
		t.Fatalf("%s m=%d n=%d: Distance(a,b) = %v, Distance(b,a) = %v", m.Name(), len(a), len(b), ab, ba)
	}
	for _, tau := range []float64{ab, math.Nextafter(ab, math.Inf(-1)), math.Nextafter(ab, math.Inf(1)), ab / 2, ab * 2} {
		if tau < 0 || math.IsNaN(tau) {
			continue
		}
		d1, ok1 := m.DistanceThreshold(a, b, tau)
		d2, ok2 := m.DistanceThreshold(b, a, tau)
		if ok1 != ok2 || (ok1 && math.Float64bits(d1) != math.Float64bits(d2)) {
			t.Fatalf("%s m=%d n=%d tau=%v: (a,b) -> %v/%v, (b,a) -> %v/%v", m.Name(), len(a), len(b), tau, d1, ok1, d2, ok2)
		}
	}
}

// Every registered measure is bitwise symmetric, on what a join's verifier
// is really handed (route mates and near misses of gen.VerifyWorkloads) and
// on the shapes where a DP's two argument orders walk different cells:
// m = 1, n = 1, unequal lengths, shared prefixes.
func TestSymmetricContractAllMeasures(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, r := range registry {
		m := r.make(0.5, 3)
		for i := 0; i < 300; i++ {
			a := randTraj(rng, 1+rng.Intn(14))
			b := randTraj(rng, 1+rng.Intn(14))
			for _, p := range [][2][]geom.Point{
				{a, b}, {a, jitter(rng, a, 0.4)}, {a, a},
				{a, b[:1]}, {a[:1], b}, {a[:1], b[:1]},
				{a, a[:1+rng.Intn(len(a))]}, {a, append(a[:len(a):len(a)], b...)},
			} {
				checkSymmetric(t, m, p[0], p[1])
			}
		}
	}
	for _, w := range gen.VerifyWorkloads {
		ts, qs := w.Pairs(150)
		for _, r := range registry {
			m := r.make(w.Tau, 3) // ε at the workload's scale, so edit measures see matches and misses
			for i := range ts {
				checkSymmetric(t, m, ts[i].Points, qs[i].Points)
			}
		}
	}
}

// The banded edit DP must keep column 0 alive: with no substitution move
// (LCSS) the skips down it can be the only path within tau, the one match
// that completes it still rows ahead.
func TestLCSSThresholdLateMatch(t *testing.T) {
	m := LCSS{Eps: 0.5, Delta: 3}
	a := []geom.Point{{X: 5}, {X: 6}, {X: 7}, {X: 0}}
	b := []geom.Point{{X: 0}}
	for _, tau := range []float64{2, 3, 4} {
		checkThresholdContract(t, m, a, b, tau)
		checkThresholdContract(t, m, b, a, tau)
	}
}
