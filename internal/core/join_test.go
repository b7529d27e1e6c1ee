package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"dita/internal/cluster"
	"dita/internal/gen"
	"dita/internal/measure"
	"dita/internal/oracle"
	"dita/internal/traj"
)

// checkJoin fails unless got is want, an oracle join answer: pair for pair
// in (T.ID, Q.ID) order, distances bit for bit.
func checkJoin(t testing.TB, got []Pair, want []oracle.Pair, label string) {
	t.Helper()
	if err := oracle.DiffJoin(pairsOf(got), want); err != nil {
		t.Fatalf("%s: join: %v", label, err)
	}
}

// joinViewsOf captures two engines' sides as a join does.
func joinViewsOf(a, b *Engine) *joinViews {
	left, right := a.capture(b, nil)
	return &joinViews{e: a, other: b, left: left.sides(), right: right.sides()}
}

// buildPair builds two engines on a shared cluster for joining.
func buildPair(t *testing.T, a, b *traj.Dataset, m measure.Measure, workers int) (*Engine, *Engine) {
	t.Helper()
	cl := cluster.New(cluster.DefaultConfig(workers))
	opts := DefaultOptions()
	opts.NG = 3
	opts.Trie.MinNode = 4
	opts.Measure = m
	opts.Cluster = cl
	ea, err := NewEngine(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := NewEngine(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ea, eb
}

// The distributed join must produce exactly the brute-force pair set.
func TestJoinMatchesBruteForce(t *testing.T) {
	a := gen.Generate(gen.BeijingLike(120, 1))
	bcfg := gen.BeijingLike(100, 2)
	bcfg.Name = "B2"
	b := gen.Generate(bcfg)
	// Offset b's ids to keep pairs unambiguous.
	for _, tr := range b.Trajs {
		tr.ID += 10000
	}
	for _, m := range []measure.Measure{measure.DTW{}, measure.Frechet{}} {
		var tau float64
		if m.Accumulation() == measure.AccumMax {
			tau = 0.01
		} else {
			tau = 0.05
		}
		ea, eb := buildPair(t, a, b, m, 4)
		var stats JoinStats
		pairs := ea.Join(eb, tau, DefaultJoinOptions(), &stats)
		want := oracle.Join(a.Trajs, b.Trajs, m, tau)
		checkJoin(t, pairs, want, m.Name())
		if stats.Results != len(pairs) {
			t.Errorf("stats.Results = %d, want %d", stats.Results, len(pairs))
		}
		if len(want) > 0 && stats.Edges == 0 {
			t.Error("join produced results with zero edges?")
		}
	}
}

// Self-join: every trajectory pairs with itself.
func TestSelfJoin(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(100, 3))
	ea, eb := buildPair(t, d, d, measure.DTW{}, 4)
	pairs := ea.Join(eb, 0.02, DefaultJoinOptions(), nil)
	self := map[int]bool{}
	for _, p := range pairs {
		if p.T.ID == p.Q.ID {
			self[p.T.ID] = true
		}
	}
	if len(self) != d.Len() {
		t.Errorf("self-join found %d self pairs, want %d", len(self), d.Len())
	}
	want := oracle.Join(d.Trajs, d.Trajs, measure.DTW{}, 0.02)
	checkJoin(t, pairs, want, "self-join")
}

// Edit-measure joins must be exact too (no partition-level pruning path).
func TestJoinEditMeasures(t *testing.T) {
	a := gen.Generate(gen.BeijingLike(60, 4))
	b := gen.Generate(gen.BeijingLike(50, 5))
	for _, tr := range b.Trajs {
		tr.ID += 10000
	}
	for _, m := range []measure.Measure{
		measure.EDR{Eps: 0.002}, measure.LCSS{Eps: 0.002, Delta: 5}, measure.ERP{},
	} {
		var tau float64
		if m.Accumulation() == measure.AccumEdit {
			tau = 8
		} else {
			tau = 0.1
		}
		ea, eb := buildPair(t, a, b, m, 2)
		pairs := ea.Join(eb, tau, DefaultJoinOptions(), nil)
		want := oracle.Join(a.Trajs, b.Trajs, m, tau)
		checkJoin(t, pairs, want, m.Name())
	}
}

// The ablation switches must not change results, only costs.
func TestJoinAblationsExact(t *testing.T) {
	a := gen.Generate(gen.BeijingLike(80, 6))
	b := gen.Generate(gen.BeijingLike(80, 7))
	for _, tr := range b.Trajs {
		tr.ID += 10000
	}
	want := oracle.Join(a.Trajs, b.Trajs, measure.DTW{}, 0.04)
	for _, mode := range []struct {
		name string
		opts JoinOptions
	}{
		{"default", DefaultJoinOptions()},
		{"no-orientation", JoinOptions{SampleRate: 0.1, DisableOrientation: true, DivisionQuantile: 0.98, Seed: 2}},
		{"no-division", JoinOptions{SampleRate: 0.1, DisableDivision: true, DivisionQuantile: 0.98, Seed: 3}},
		{"no-both", JoinOptions{SampleRate: 0.1, DisableOrientation: true, DisableDivision: true, Seed: 4}},
	} {
		ea, eb := buildPair(t, a, b, measure.DTW{}, 4)
		pairs := ea.Join(eb, 0.04, mode.opts, nil)
		checkJoin(t, pairs, want, mode.name)
	}
}

// Joins on one worker (centralized) and many workers agree.
func TestJoinWorkerCounts(t *testing.T) {
	a := gen.Generate(gen.BeijingLike(70, 8))
	b := gen.Generate(gen.BeijingLike(70, 9))
	for _, tr := range b.Trajs {
		tr.ID += 10000
	}
	want := oracle.Join(a.Trajs, b.Trajs, measure.DTW{}, 0.03)
	for _, w := range []int{1, 2, 8} {
		ea, eb := buildPair(t, a, b, measure.DTW{}, w)
		pairs := ea.Join(eb, 0.03, DefaultJoinOptions(), nil)
		checkJoin(t, pairs, want, fmt.Sprintf("workers=%d", w))
	}
}

// Join stats must reflect the shuffle.
func TestJoinStats(t *testing.T) {
	a := gen.Generate(gen.BeijingLike(150, 10))
	ea, eb := buildPair(t, a, a, measure.DTW{}, 4)
	var stats JoinStats
	pairs := ea.Join(eb, 0.02, DefaultJoinOptions(), &stats)
	if stats.Results != len(pairs) || stats.Results < a.Len() {
		t.Errorf("results: stats=%d pairs=%d", stats.Results, len(pairs))
	}
	if stats.Edges == 0 {
		t.Error("no edges on a self-join")
	}
	if stats.TrajsSent == 0 || stats.BytesSent == 0 {
		t.Errorf("shuffle not accounted: %+v", stats)
	}
	if stats.CandPairs < stats.Results {
		t.Errorf("candidates %d < results %d", stats.CandPairs, stats.Results)
	}
	if stats.LoadRatio < 1 {
		t.Errorf("load ratio %v < 1", stats.LoadRatio)
	}
}

// An empty intersection produces no pairs and no spurious shuffle results.
func TestJoinDisjointDatasets(t *testing.T) {
	a := gen.Generate(gen.BeijingLike(50, 11))
	ccfg := gen.ChengduLike(50, 12) // different city: far away extent
	c := gen.Generate(ccfg)
	for _, tr := range c.Trajs {
		tr.ID += 10000
	}
	ea, ec := buildPair(t, a, c, measure.DTW{}, 2)
	var stats JoinStats
	pairs := ea.Join(ec, 0.05, DefaultJoinOptions(), &stats)
	if len(pairs) != 0 {
		t.Errorf("disjoint join returned %d pairs", len(pairs))
	}
	if stats.Edges != 0 {
		t.Errorf("disjoint join built %d edges", stats.Edges)
	}
}

// Division-based balancing should reduce the load imbalance on skewed
// workloads (Figure 16's claim), at least not increase it dramatically. The
// imbalance compared is the plan's: the cost model's receiving-side work per
// executing worker, max over mean, with and without division over one
// bi-graph — a count, where JoinStats.LoadRatio is max/min measured worker
// time and moves with whatever else the machine runs.
func TestDivisionBalancesSkew(t *testing.T) {
	// Skewed: all trajectories share nearly identical endpoints, so one
	// partition pair dominates.
	cfg := gen.BeijingLike(400, 13)
	cfg.Hotspots = 1
	cfg.HotspotStd = 0.001
	d := gen.Generate(cfg)
	ea, eb := buildPair(t, d, d, measure.DTW{}, 8)

	opts := DefaultJoinOptions()
	opts.Lambda = 1.0 / 250.0
	jv := joinViewsOf(ea, eb)
	edges, err := jv.buildBigraph(context.Background(), 0.002, opts)
	if err != nil || len(edges) == 0 {
		t.Fatalf("bigraph: %d edges, err %v", len(edges), err)
	}
	if _, err := orient(context.Background(), edges, len(jv.left), len(jv.right), opts); err != nil {
		t.Fatal(err)
	}
	imbalance := func(disable bool) (float64, int) {
		opts.DisableDivision = disable
		divisions := jv.balance(edges, opts)
		load := make([]float64, ea.cl.Workers())
		total := 0.0
		for _, ed := range edges {
			c := opts.Lambda*ed.transQT + ed.compQT
			if ed.dirTQ {
				c = opts.Lambda*ed.transTQ + ed.compTQ
			}
			load[ed.execWorker] += c
			total += c
		}
		max := 0.0
		for _, l := range load {
			max = math.Max(max, l)
		}
		return max * float64(len(load)) / total, divisions
	}
	naive, _ := imbalance(true)
	balanced, divisions := imbalance(false)
	t.Logf("planned max/mean worker load: balanced=%.2f naive=%.2f divisions=%d", balanced, naive, divisions)
	if divisions == 0 {
		t.Log("no divisions triggered on this workload (acceptable: quantile threshold not exceeded)")
	}
	if balanced > naive*1.5 {
		t.Errorf("division balancing made the planned skew worse: %v vs %v", balanced, naive)
	}

	// The executed join reports a ratio of measured worker times; all that
	// holds of it on any machine is that it is a max over a min.
	var stats JoinStats
	opts.DisableDivision = false
	ea.Join(eb, 0.002, opts, &stats)
	if stats.LoadRatio < 1 || stats.Divisions != divisions {
		t.Errorf("executed join: load ratio %v (want >= 1), %d divisions (planned %d)", stats.LoadRatio, stats.Divisions, divisions)
	}
}

// TestJoinMeasureMismatch: a join prunes with the left engine's measure and
// verifies with whichever side an edge is oriented into, so two engines
// with different measures would return a mixture of both answers. The join
// refuses them like the kNN join, and the pinned Join panics with the
// refusal.
func TestJoinMeasureMismatch(t *testing.T) {
	d := smallDataset(120, 56)
	opts := smallOpts(4)
	dtw, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Measure = measure.Frechet{}
	frechet, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	pairs, rep, err := dtw.JoinPartialContext(context.Background(), frechet, 0.01, DefaultJoinOptions(), nil)
	if err == nil || !strings.Contains(err.Error(), "measure mismatch") || pairs != nil || rep != nil {
		t.Fatalf("DTW ⋈ Fréchet: %d pairs, report %v, err %v; want a measure mismatch", len(pairs), rep, err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "measure mismatch") {
			t.Fatalf("Join panicked with %v, want the measure mismatch", r)
		}
	}()
	frechet.Join(dtw, 0.01, DefaultJoinOptions(), nil)
}
