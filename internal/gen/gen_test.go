package gen

import (
	"math"
	"testing"

	"dita/internal/traj"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(BeijingLike(50, 7))
	b := Generate(BeijingLike(50, 7))
	if a.Len() != b.Len() {
		t.Fatal("cardinality differs across runs")
	}
	for i := range a.Trajs {
		at, bt := a.Trajs[i], b.Trajs[i]
		if at.ID != bt.ID || at.Len() != bt.Len() {
			t.Fatalf("traj %d differs", i)
		}
		for j := range at.Points {
			if at.Points[j] != bt.Points[j] {
				t.Fatalf("point %d,%d differs", i, j)
			}
		}
	}
	c := Generate(BeijingLike(50, 8))
	same := true
	for i := range a.Trajs {
		if a.Trajs[i].Len() != c.Trajs[i].Len() {
			same = false
			break
		}
	}
	if same {
		// Extremely unlikely for 50 trajectories with different seeds.
		t.Error("different seeds produced identical length sequences")
	}
}

func TestStatsMatchTable2Shape(t *testing.T) {
	cases := []struct {
		cfg            Config
		wantAvg        float64
		minLen, maxLen int
	}{
		{BeijingLike(2000, 1), 22.2, 7, 112},
		{ChengduLike(2000, 1), 37.4, 10, 209},
		{OSMLike(500, 1), 114, 9, 3000},
	}
	for _, c := range cases {
		d := Generate(c.cfg)
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: invalid dataset: %v", c.cfg.Name, err)
		}
		s := d.Stats()
		if s.Cardinality != c.cfg.N {
			t.Errorf("%s: cardinality %d, want %d", c.cfg.Name, s.Cardinality, c.cfg.N)
		}
		if s.MinLen < c.minLen || s.MaxLen > c.maxLen {
			t.Errorf("%s: lengths [%d,%d] outside Table 2 bounds [%d,%d]",
				c.cfg.Name, s.MinLen, s.MaxLen, c.minLen, c.maxLen)
		}
		// Mean length within 30% of the Table 2 value: the generator
		// approximates the distribution, not the exact moments.
		if math.Abs(s.AvgLen-c.wantAvg)/c.wantAvg > 0.3 {
			t.Errorf("%s: AvgLen %.1f too far from Table 2's %.1f", c.cfg.Name, s.AvgLen, c.wantAvg)
		}
		// All points inside the configured extent.
		if !c.cfg.Extent.Covers(s.Extent) {
			t.Errorf("%s: points escape extent: %v vs %v", c.cfg.Name, s.Extent, c.cfg.Extent)
		}
	}
}

func TestSpatialLocality(t *testing.T) {
	// Consecutive points must be near each other (a road-following walk),
	// far from a uniform scatter.
	d := Generate(BeijingLike(200, 3))
	cfg := BeijingLike(200, 3)
	total, large := 0, 0
	for _, tr := range d.Trajs {
		for i := 1; i < tr.Len(); i++ {
			step := tr.Points[i-1].Dist(tr.Points[i])
			total++
			// Route followers may drop consecutive samples, multiplying
			// the apparent step; those must stay rare.
			if step > 3*cfg.Step {
				large++
			}
			if step > 8*cfg.Step {
				t.Fatalf("traj %d: step %v exceeds 8x configured step %v", tr.ID, step, cfg.Step)
			}
		}
	}
	if float64(large) > 0.02*float64(total) {
		t.Errorf("%d of %d steps exceed 3x the configured step", large, total)
	}
}

func TestHotspotSkew(t *testing.T) {
	// Origins must be clustered: the densest small cell should hold far
	// more than a uniform share of trip origins.
	cfg := BeijingLike(3000, 5)
	d := Generate(cfg)
	const grid = 10
	counts := make(map[[2]int]int)
	w := cfg.Extent.Max.X - cfg.Extent.Min.X
	h := cfg.Extent.Max.Y - cfg.Extent.Min.Y
	for _, tr := range d.Trajs {
		p := tr.First()
		gx := int((p.X - cfg.Extent.Min.X) / w * grid)
		gy := int((p.Y - cfg.Extent.Min.Y) / h * grid)
		if gx >= grid {
			gx = grid - 1
		}
		if gy >= grid {
			gy = grid - 1
		}
		counts[[2]int{gx, gy}]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	uniform := float64(d.Len()) / (grid * grid)
	if float64(max) < 2*uniform {
		t.Errorf("no skew: densest cell %d vs uniform share %.1f", max, uniform)
	}
}

func TestQueries(t *testing.T) {
	d := Generate(BeijingLike(100, 2))
	qs := Queries(d, 10, 9)
	if len(qs) != 10 {
		t.Fatalf("got %d queries", len(qs))
	}
	qs2 := Queries(d, 10, 9)
	for i := range qs {
		if qs[i] != qs2[i] {
			t.Fatal("queries not deterministic")
		}
	}
	seen := map[int]bool{}
	for _, q := range qs {
		if seen[q.ID] {
			t.Fatal("duplicate query")
		}
		seen[q.ID] = true
	}
	if got := Queries(d, 1000, 1); len(got) != d.Len() {
		t.Errorf("oversampling should clamp to dataset size, got %d", len(got))
	}
}

func TestGenerateEdgeCases(t *testing.T) {
	if d := Generate(Config{N: 0, Name: "empty"}); d.Len() != 0 {
		t.Error("N=0 should produce an empty dataset")
	}
	if d := Generate(BeijingLike(-5, 1)); d.Len() != 0 {
		t.Error("negative N should produce an empty dataset")
	}
	// A config forcing minimal lengths still yields valid trajectories.
	cfg := BeijingLike(10, 1)
	cfg.MinLen, cfg.MaxLen, cfg.MeanLen = 1, 2, 1
	d := Generate(cfg)
	for _, tr := range d.Trajs {
		if tr.Len() < traj.MinLen {
			t.Fatalf("trajectory shorter than traj.MinLen: %d", tr.Len())
		}
	}
}

// Route sharing must produce genuinely similar trajectory pairs at the
// paper's τ scale — the property that makes the evaluation thresholds
// meaningful (real taxi fleets re-drive the same roads).
func TestRouteSharingProducesSimilarPairs(t *testing.T) {
	d := Generate(BeijingLike(500, 17))
	// Count pairs with nearly identical endpoints as a cheap proxy for
	// route-mates (full DTW here would be O(n^2) heavy).
	mates := 0
	for i := 0; i < d.Len(); i++ {
		for j := i + 1; j < d.Len(); j++ {
			a, b := d.Trajs[i], d.Trajs[j]
			if a.First().Dist(b.First()) < 5e-4 && a.Last().Dist(b.Last()) < 5e-4 {
				mates++
			}
		}
	}
	if mates < 100 {
		t.Errorf("only %d route-mate pairs among 500 trajectories; route sharing ineffective", mates)
	}
	// Disabling routes removes the effect.
	cfg := BeijingLike(500, 17)
	cfg.Routes = 0
	free := Generate(cfg)
	freeMates := 0
	for i := 0; i < free.Len(); i++ {
		for j := i + 1; j < free.Len(); j++ {
			a, b := free.Trajs[i], free.Trajs[j]
			if a.First().Dist(b.First()) < 5e-4 && a.Last().Dist(b.Last()) < 5e-4 {
				freeMates++
			}
		}
	}
	if freeMates >= mates {
		t.Errorf("route sharing had no effect: %d vs %d", mates, freeMates)
	}
}

// A verify workload's pairs are what the O(1) filters let through: capped at
// max, every query paired with itself, and no pair the endpoint bound rejects.
func TestVerifyWorkloadPairs(t *testing.T) {
	w := VerifyWorkload{Name: "small", Cfg: BeijingLike(600, 23), Tau: 0.003}
	ts, qs := w.Pairs(500)
	if len(ts) == 0 || len(ts) > 500 || len(ts) != len(qs) {
		t.Fatalf("got %d candidates for %d queries, want 1..500 of each", len(ts), len(qs))
	}
	self, mates := 0, 0
	for i := range ts {
		if ts[i] == qs[i] {
			self++
		} else {
			mates++
		}
		if d := ts[i].First().Dist(qs[i].First()) + ts[i].Last().Dist(qs[i].Last()); d > w.Tau {
			t.Fatalf("pair %d: endpoint bound %v > tau", i, d)
		}
	}
	if self == 0 || mates == 0 {
		t.Errorf("%d self pairs and %d route mates; want both", self, mates)
	}
}
