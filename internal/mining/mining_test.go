package mining

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dita/internal/cluster"
	"dita/internal/core"
	"dita/internal/geom"
	"dita/internal/oracle"
	"dita/internal/traj"
	"dita/internal/viewtest"
)

// plantedDataset builds trajectories with known cluster structure: k route
// templates, each followed by size trips with tiny noise, plus outliers
// far from everything.
func plantedDataset(k, size, outliers int, seed int64) (*traj.Dataset, [][]int) {
	rng := rand.New(rand.NewSource(seed))
	var trajs []*traj.T
	truth := make([][]int, k)
	id := 0
	for c := 0; c < k; c++ {
		// Template: a short walk around a well-separated base point.
		base := geom.Point{X: float64(c) * 10, Y: float64(c%3) * 10}
		tmpl := make([]geom.Point, 8)
		x, y := base.X, base.Y
		for i := range tmpl {
			x += rng.Float64() * 0.3
			y += rng.Float64() * 0.3
			tmpl[i] = geom.Point{X: x, Y: y}
		}
		for s := 0; s < size; s++ {
			pts := make([]geom.Point, len(tmpl))
			for i, p := range tmpl {
				pts[i] = geom.Point{X: p.X + rng.NormFloat64()*0.001, Y: p.Y + rng.NormFloat64()*0.001}
			}
			trajs = append(trajs, &traj.T{ID: id, Points: pts})
			truth[c] = append(truth[c], id)
			id++
		}
	}
	for o := 0; o < outliers; o++ {
		// Far away, each in its own corner.
		base := geom.Point{X: -100 - float64(o)*50, Y: -100 - float64(o)*50}
		pts := make([]geom.Point, 6)
		x, y := base.X, base.Y
		for i := range pts {
			x += rng.Float64()
			y += rng.Float64()
			pts[i] = geom.Point{X: x, Y: y}
		}
		trajs = append(trajs, &traj.T{ID: id, Points: pts})
		id++
	}
	return traj.NewDataset("planted", trajs), truth
}

func buildEngine(t *testing.T, d *traj.Dataset) *core.Engine {
	t.Helper()
	opts := core.DefaultOptions()
	opts.NG = 3
	opts.Trie.MinNode = 2
	opts.Cluster = cluster.New(cluster.DefaultConfig(4))
	e, err := core.NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestClustersRecoverPlanted(t *testing.T) {
	d, truth := plantedDataset(5, 12, 3, 1)
	e := buildEngine(t, d)
	clusters := Clusters(e, Options{Tau: 0.5, MinSupport: 2})
	if len(clusters) != 5 {
		t.Fatalf("found %d clusters, want 5", len(clusters))
	}
	// Each found cluster must be exactly one planted group.
	for _, c := range clusters {
		if c.Support() != 12 {
			t.Fatalf("cluster support %d, want 12", c.Support())
		}
		group := -1
		for g, ids := range truth {
			for _, id := range ids {
				if id == c.Medoid.ID {
					group = g
				}
			}
		}
		if group < 0 {
			t.Fatal("medoid is an outlier?")
		}
		want := map[int]bool{}
		for _, id := range truth[group] {
			want[id] = true
		}
		for _, m := range c.Members {
			if !want[m.ID] {
				t.Fatalf("cluster mixes groups: member %d not in group %d", m.ID, group)
			}
		}
	}
}

func TestFrequentRoutesRecoverPlanted(t *testing.T) {
	d, truth := plantedDataset(4, 10, 2, 2)
	e := buildEngine(t, d)
	routes := FrequentRoutes(e, Options{Tau: 0.5, MinSupport: 3})
	if len(routes) != 4 {
		t.Fatalf("found %d routes, want 4", len(routes))
	}
	for _, r := range routes {
		if r.Support != 10 {
			t.Fatalf("route support %d, want 10", r.Support)
		}
		// TripIDs must be exactly one planted group.
		matched := false
		for _, ids := range truth {
			if len(ids) != len(r.TripIDs) {
				continue
			}
			same := true
			for i := range ids {
				if ids[i] != r.TripIDs[i] {
					same = false
					break
				}
			}
			if same {
				matched = true
			}
		}
		if !matched {
			t.Fatalf("route members %v match no planted group", r.TripIDs)
		}
	}
}

func TestOutliersDetected(t *testing.T) {
	d, _ := plantedDataset(3, 10, 4, 3)
	e := buildEngine(t, d)
	out := Outliers(e, 0.5, 1)
	if len(out) != 4 {
		t.Fatalf("found %d outliers, want 4", len(out))
	}
	for _, o := range out {
		if o.ID < 30 { // first 30 ids are cluster members
			t.Fatalf("cluster member %d flagged as outlier", o.ID)
		}
	}
}

func TestMiningDegenerate(t *testing.T) {
	d := traj.NewDataset("tiny", []*traj.T{
		{ID: 0, Points: []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}},
		{ID: 1, Points: []geom.Point{{X: 100, Y: 100}, {X: 101, Y: 101}}},
	})
	e := buildEngine(t, d)
	// No pair is similar: no clusters at MinSupport 2.
	if got := Clusters(e, Options{Tau: 0.1}); len(got) != 0 {
		t.Errorf("clusters = %v", got)
	}
	// MinSupport 1 keeps singletons.
	if got := Clusters(e, Options{Tau: 0.1, MinSupport: 1}); len(got) != 2 {
		t.Errorf("singleton clusters = %d, want 2", len(got))
	}
	if got := FrequentRoutes(e, Options{Tau: 0.1, MinSupport: 2}); len(got) != 0 {
		t.Errorf("routes = %v", got)
	}
	// Everything is an outlier at a tiny tau.
	if got := Outliers(e, 0.1, 1); len(got) != 2 {
		t.Errorf("outliers = %d, want 2", len(got))
	}
}

// Every trajectory lands in at most one cluster, and clusters are sorted
// by support.
func TestClusterInvariants(t *testing.T) {
	d, _ := plantedDataset(6, 8, 5, 4)
	e := buildEngine(t, d)
	clusters := Clusters(e, Options{Tau: 0.5, MinSupport: 1})
	seen := map[int]bool{}
	prev := 1 << 30
	for _, c := range clusters {
		if c.Support() > prev {
			t.Fatal("clusters not sorted by support")
		}
		prev = c.Support()
		for _, m := range c.Members {
			if seen[m.ID] {
				t.Fatalf("trajectory %d in two clusters", m.ID)
			}
			seen[m.ID] = true
		}
	}
	if len(seen) != d.Len() {
		t.Fatalf("MinSupport=1 clustering covered %d of %d", len(seen), d.Len())
	}
}

// The τ-graph's nodes are the built dataset: a member inserted since the
// build links nothing to anything (it used to read as position 0, pairing
// its near-copy's original with trajectory 0), and a member deleted since
// has no neighbors.
func TestMiningIgnoresMembersOutsideTheDataset(t *testing.T) {
	d, truth := plantedDataset(4, 10, 2, 5)
	e := buildEngine(t, d)
	if _, err := e.EnableIngest(core.IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	// k is in the third planted group, far from d.Trajs[0] in the first.
	k := truth[2][3]
	if err := e.Insert(&traj.T{ID: 10000, Points: d.Trajs[k].Points}); err != nil {
		t.Fatal(err)
	}
	gone := truth[1][0]
	if ok, err := e.Delete(d.Trajs[gone].ID); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	together := func(ids ...int) bool {
		has := map[int]bool{}
		for _, id := range ids {
			has[id] = true
		}
		return has[d.Trajs[0].ID] && has[d.Trajs[k].ID]
	}
	for _, r := range FrequentRoutes(e, Options{Tau: 0.5, MinSupport: 2}) {
		if together(r.TripIDs...) {
			t.Fatalf("route %v pairs trajectory %d with trajectory 0", r.TripIDs, d.Trajs[k].ID)
		}
	}
	for _, c := range Clusters(e, Options{Tau: 0.5, MinSupport: 1}) {
		var ids []int
		for _, m := range c.Members {
			ids = append(ids, m.ID)
		}
		if together(ids...) {
			t.Fatalf("cluster %v pairs trajectory %d with trajectory 0", ids, d.Trajs[k].ID)
		}
	}
	g := tauGraph(e, 0.5)
	if len(g[gone]) != 0 {
		t.Fatalf("deleted member %d has neighbors %v", gone, g[gone])
	}
	for i, nb := range g {
		if slices.Contains(nb, gone) {
			t.Fatalf("member %d neighbors the deleted member %d", i, gone)
		}
	}
}

// The τ-graph equals the oracle's self-join under every measure, at a τ
// between two pairwise distances so no pair ties it.
func TestTauGraphMatchesBruteForce(t *testing.T) {
	d, _ := plantedDataset(5, 8, 3, 6)
	for _, m := range viewtest.Measures(t) {
		var ds []float64
		for _, p := range oracle.SelfJoin(d.Trajs, m, math.Inf(1)) {
			if p.T < p.Q {
				ds = append(ds, p.Distance)
			}
		}
		slices.Sort(ds)
		ds = slices.Compact(ds)
		i := len(ds) / 8
		tau := (ds[i] + ds[i+1]) / 2
		opts := core.DefaultOptions()
		opts.NG = 3
		opts.Trie.MinNode = 2
		opts.Measure = m
		opts.Cluster = cluster.New(cluster.DefaultConfig(4))
		e, err := core.NewEngine(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		// A member's id is its position, so the oracle's pairs with T = i
		// are member i's neighbours, ascending.
		want := make([][]int, d.Len())
		for _, p := range oracle.SelfJoin(d.Trajs, m, tau) {
			want[p.T] = append(want[p.T], p.Q)
		}
		edges := 0
		for i, nb := range tauGraph(e, tau) {
			if !slices.Equal(nb, want[i]) {
				t.Fatalf("%s τ=%v: member %d neighbors %v, the oracle's %v", m.Name(), tau, i, nb, want[i])
			}
			edges += len(nb) - 1
		}
		if edges == 0 {
			t.Fatalf("%s τ=%v: no edges; the test checks nothing", m.Name(), tau)
		}
	}
}
