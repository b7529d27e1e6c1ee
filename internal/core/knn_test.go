package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dita/internal/gen"
	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/oracle"
	"dita/internal/traj"
)

// checkKNN fails unless got is the oracle's kNN answer over members, in
// (distance, ID) order with the exact kernel's bits.
func checkKNN(t testing.TB, label string, got []SearchResult, members []*traj.T, m measure.Measure, q *traj.T, k int) {
	t.Helper()
	if err := oracle.DiffKNN(hitsOf(got), oracle.KNN(members, m, q, k)); err != nil {
		t.Fatalf("%s: q=%d k=%d: knn: %v", label, q.ID, k, err)
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	d := smallDataset(250, 20)
	e, err := NewEngine(d, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range gen.Queries(d, 6, 21) {
		for _, k := range []int{1, 5, 20} {
			checkKNN(t, "engine", e.SearchKNN(q, k), d.Trajs, measure.DTW{}, q, k)
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	d := smallDataset(30, 22)
	e, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	q := d.Trajs[0]
	if got := e.SearchKNN(q, 0); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := e.SearchKNN(nil, 3); got != nil {
		t.Error("nil query should return nil")
	}
	// k larger than the dataset returns everything.
	if got := e.SearchKNN(q, 1000); len(got) != d.Len() {
		t.Errorf("k>n returned %d, want %d", len(got), d.Len())
	}
	// 1-NN of a dataset member is itself.
	if got := e.SearchKNN(q, 1); len(got) != 1 || got[0].Traj.ID != q.ID {
		t.Errorf("1-NN of member = %v", got)
	}
}

func TestKNNJoinMatchesBruteForce(t *testing.T) {
	a := smallDataset(80, 30)
	b := smallDataset(60, 31)
	for _, tr := range b.Trajs {
		tr.ID += 10000
	}
	opts := smallOpts(4)
	ea, err := NewEngine(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := NewEngine(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := 3
	got, err := ea.KNNJoinContext(context.Background(), eb, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != a.Len() {
		t.Fatalf("KNNJoin covered %d of %d left trajectories", len(got), a.Len())
	}
	for _, tr := range a.Trajs {
		checkKNN(t, "knn join", got[tr.ID], b.Trajs, measure.DTW{}, tr, k)
	}
}

func TestKNNJoinDegenerate(t *testing.T) {
	d := smallDataset(20, 32)
	e, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := e.KNNJoinContext(context.Background(), e, 0, nil); err != nil || got != nil {
		t.Errorf("k=0 should return nil, got %v (err %v)", got, err)
	}
	// k exceeding the right side clamps.
	got, err := e.KNNJoinContext(context.Background(), e, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id, res := range got {
		if len(res) != d.Len() {
			t.Fatalf("traj %d: %d neighbors, want %d", id, len(res), d.Len())
		}
	}
}

// TestKNNAllMeasuresMatchesBruteForce sweeps the best-first engine against
// brute force under every supported measure, including k == n and k > n.
func TestKNNAllMeasuresMatchesBruteForce(t *testing.T) {
	d := smallDataset(200, 40)
	for _, m := range []measure.Measure{
		measure.DTW{}, measure.Frechet{}, measure.ERP{},
		measure.EDR{Eps: 0.01}, measure.LCSS{Eps: 0.01, Delta: 8}, measure.Hausdorff{},
	} {
		opts := smallOpts(4)
		opts.Measure = m
		e, err := NewEngine(d, opts)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for qi, q := range gen.Queries(d, 4, 41) {
			for _, k := range []int{1, 7, 50, d.Len(), d.Len() + 17} {
				checkKNN(t, fmt.Sprintf("%s q%d", m.Name(), qi), e.SearchKNN(q, k), d.Trajs, m, q, k)
			}
		}
	}
}

// TestKNNTiesAtKth cuts k through groups of byte-identical trajectories:
// every member of a tie group has the same distance, so the ID ordering
// must decide — exactly as brute force does. The second query is not a
// member, so its tie groups sit at non-zero distances, where the exact and
// the early-abandoning kernels may disagree in the last ulp: the answer's
// distances must be the exact kernel's, bit for bit, or members of one
// group met by different kernels would order by rounding noise, not by ID.
func TestKNNTiesAtKth(t *testing.T) {
	base := smallDataset(15, 42)
	var trajs []*traj.T
	id := 0
	for _, tr := range base.Trajs {
		for c := 0; c < 4; c++ {
			pts := append([]geom.Point(nil), tr.Points...)
			trajs = append(trajs, &traj.T{ID: id, Points: pts})
			id++
		}
	}
	d := traj.NewDataset("ties", trajs)
	e, err := NewEngine(d, smallOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	member := trajs[8] // its whole tie group sits at distance 0
	shifted := &traj.T{ID: -1}
	for _, p := range member.Points {
		shifted.Points = append(shifted.Points, geom.Point{X: p.X + 0.0123, Y: p.Y - 0.0077})
	}
	m := measure.DTW{}
	for qi, q := range []*traj.T{member, shifted} {
		for k := 1; k <= len(trajs); k++ {
			checkKNN(t, fmt.Sprintf("query %d", qi), e.SearchKNN(q, k), trajs, m, q, k)
		}
	}
}

// stationary returns n copies of p.
func stationary(id, n int, p geom.Point) *traj.T {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = p
	}
	return &traj.T{ID: id, Points: pts}
}

// The box bound's sum form is a product, max(m,n)·d, where the kernel adds d
// max(m,n) times: between two stationary trajectories every step costs the
// same d, and the rounded product can exceed the rounded sum. Groups of
// stationary members that tie exactly, stored with the larger ids first, so
// the smaller ids must enter a full heap through the tie at the k-th
// distance — which a bound an ulp above that distance would prune. The
// point bound's larger side is the kernel's own sum there, so a scan capped
// at an exact member distance pins that a bound equal to τ never rejects,
// and a threshold search at that τ must keep every member tying there.
func TestKNNStationaryDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const groups, copies = 24, 5
	var trajs []*traj.T
	for g := 0; g < groups; g++ {
		p := geom.Point{X: 116 + rng.Float64()*0.8, Y: 39.6 + rng.Float64()*0.6}
		n := traj.MinLen + rng.Intn(30)
		for c := 0; c < copies; c++ {
			trajs = append(trajs, stationary(0, n, p))
		}
	}
	for i, tr := range trajs {
		tr.ID = len(trajs) - 1 - i // slot order is descending id order
	}
	d := traj.NewDataset("stationary", trajs)
	meta := make([]VerifyMeta, len(trajs))
	for i, tr := range trajs {
		meta[i] = NewVerifyMeta(tr, 0)
	}
	for _, m := range []measure.Measure{measure.DTW{}, measure.Frechet{}, measure.Hausdorff{}} {
		var ran, tied int64
		opts := smallOpts(2)
		opts.Measure = m
		e, err := NewEngine(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 12; qi++ {
			q := stationary(-1, 1+rng.Intn(30), geom.Point{X: 116 + rng.Float64()*0.8, Y: 39.6 + rng.Float64()*0.6})
			if qi%4 == 0 {
				q = stationary(-1, 1+rng.Intn(30), trajs[rng.Intn(len(trajs))].Points[0]) // on a member
			}
			for k := 1; k <= len(trajs); k++ {
				checkKNN(t, fmt.Sprintf("%s query %d", m.Name(), qi), e.SearchKNN(q, k), trajs, m, q, k)
			}
			// τ handed over up front at an exact member distance, as a
			// fan-out visit's cap is: between stationary trajectories the
			// point bound's larger side is the kernel's own sum, so it
			// equals τ on every member tying there, and each must survive.
			for _, k := range []int{1, copies, 2*copies + 1} {
				tau := oracle.KNN(trajs, m, q, k)[k-1].Distance
				acc := NewKNNAcc(k)
				s := scanAll(m, q.Points, trajs, meta, acc, tau)
				label := fmt.Sprintf("%s query %d at τ = %v", m.Name(), qi, tau)
				checkKNN(t, label, acc.Results(), trajs, m, q, k)
				ran += s.pointRuns
				// The threshold search at the same τ keeps every member tying
				// there: the trie's path bound equals τ on them.
				checkSearch(t, label, e.Search(q, tau, nil), trajs, m, q, tau)
				b := boxBoundOf(m)
				for _, h := range oracle.Search(trajs, m, q, tau) {
					tr := trajs[len(trajs)-1-h.ID]
					if h.Distance == tau && max(b.pointSide(q.Points, tr.MBR(), tau), b.pointSide(tr.Points, q.MBR(), tau)) == tau {
						tied++
					}
				}
			}
		}
		if ran == 0 || tied == 0 {
			t.Errorf("%s: at τ = a member distance the point bound ran %d times and equalled τ %d times", m.Name(), ran, tied)
		}
	}
}

// The product form alone, against the kernel: with the deflation it never
// exceeds DTW between stationary trajectories, and the bare product does —
// or this test and the one above would prove nothing.
func TestBoxBoundUlpSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dtw := measure.DTW{}
	bare := 0
	for i := 0; i < 20000; i++ {
		a := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		b := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		tt, q := stationary(0, 1+rng.Intn(60), a), stationary(1, 1+rng.Intn(60), b)
		dist := dtw.Distance(tt.Points, q.Points)
		tm, qm := tt.MBR(), q.MBR()
		if lb := boxSum.lowerBound(qm, tm, len(q.Points), len(tt.Points)); lb > dist {
			t.Fatalf("box bound %v above DTW %v (m=%d n=%d)", lb, dist, len(tt.Points), len(q.Points))
		}
		if float64(max(len(tt.Points), len(q.Points)))*qm.MinDistMBR(tm) > dist {
			bare++
		}
		if lb := boxMax.lowerBound(qm, tm, len(q.Points), len(tt.Points)); lb > (measure.Frechet{}).Distance(tt.Points, q.Points) {
			t.Fatalf("box bound %v above Fréchet", lb)
		}
	}
	if bare == 0 {
		t.Fatal("the undeflated product never exceeded the kernel's sum: the inputs do not exercise the rounding")
	}
	for _, m := range []measure.Measure{measure.ERP{}, measure.EDR{Eps: 0.1}, measure.LCSS{Eps: 0.1, Delta: 2}} {
		if b := boxBoundOf(m); b != boxNone {
			t.Fatalf("%s: box bound %v, want none (a point may go unmatched)", m.Name(), b)
		}
	}
}

// radiusMeasure is DTW clipped to a reachability radius: anything farther
// than r is at distance +Inf. Standard measures never return Inf on
// non-empty inputs, so this is how the unreachable-neighbor path (and the
// old code's silent probe>60 truncation) is exercised.
type radiusMeasure struct {
	measure.DTW
	r float64
}

func (m radiusMeasure) Name() string { return "RADIUS" }

func (m radiusMeasure) Distance(t, q []geom.Point) float64 {
	d := m.DTW.Distance(t, q)
	if d > m.r {
		return math.Inf(1)
	}
	return d
}

func (m radiusMeasure) DistanceThreshold(t, q []geom.Point, tau float64) (float64, bool) {
	d, ok := m.DTW.DistanceThreshold(t, q, tau)
	if !ok {
		return d, false // DTW > tau, so the clipped distance is too
	}
	if d > m.r {
		return math.Inf(1), false
	}
	return d, ok
}

// TestKNNUnreachableNeighbors: when fewer than k trajectories are at
// finite distance, the result must still have k entries — the unreachable
// tail at +Inf in ID order, exactly like brute force — instead of being
// silently truncated (the old doubling path's probe>60 cap).
func TestKNNUnreachableNeighbors(t *testing.T) {
	d := smallDataset(80, 43)
	q := gen.Queries(d, 1, 44)[0]
	// Pick r so only a handful of trajectories are reachable.
	dtw := oracle.KNN(d.Trajs, measure.DTW{}, q, d.Len())
	reach := 5
	r := (dtw[reach-1].Distance + dtw[reach].Distance) / 2
	m := radiusMeasure{r: r}
	opts := smallOpts(4)
	opts.Measure = m
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{3, reach, reach + 1, 20, d.Len()} {
		got := e.SearchKNN(q, k)
		checkKNN(t, "unreachable tail", got, d.Trajs, m, q, k)
		infs := 0
		for _, r := range got {
			if math.IsInf(r.Distance, 1) {
				infs++
			}
		}
		if wantInfs := k - reach; wantInfs > 0 && infs != wantInfs {
			t.Fatalf("k=%d: %d Inf-distance results, want %d", k, infs, wantInfs)
		}
	}
}

// TestSearchKNNContextCancel: a cancelled context aborts the query.
func TestSearchKNNContextCancel(t *testing.T) {
	d := smallDataset(100, 45)
	e, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.SearchKNNContext(ctx, d.Trajs[0], 3, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestKNNJoinValidation: mismatched clusters or measures are errors, not
// silently mis-scheduled work.
func TestKNNJoinValidation(t *testing.T) {
	a := smallDataset(30, 46)
	b := smallDataset(30, 47)
	ea, err := NewEngine(a, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	// Different cluster.
	eb, err := NewEngine(b, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ea.KNNJoinContext(context.Background(), eb, 2, nil); err == nil {
		t.Error("KNNJoinContext across clusters should fail")
	}
	// Same cluster, different measure.
	opts := smallOpts(2)
	opts.Cluster = ea.Cluster()
	opts.Measure = measure.Frechet{}
	ec, err := NewEngine(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ea.KNNJoinContext(context.Background(), ec, 2, nil); err == nil {
		t.Error("KNNJoinContext across measures should fail")
	}
	// Cancelled context aborts between probes.
	opts2 := smallOpts(2)
	opts2.Cluster = ea.Cluster()
	ed, err := NewEngine(b, opts2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ea.KNNJoinContext(ctx, ed, 2, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
