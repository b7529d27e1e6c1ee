package core

import (
	"math"
	"testing"

	"dita/internal/cluster"
	"dita/internal/gen"
	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/traj"
)

// Degenerate geometry: all-identical points, duplicated trajectories,
// zero-length segments. The engine must index and answer exactly.
func TestDegenerateGeometry(t *testing.T) {
	same := geom.Point{X: 1, Y: 1}
	d := traj.NewDataset("degenerate", []*traj.T{
		{ID: 0, Points: []geom.Point{same, same, same}},             // stationary
		{ID: 1, Points: []geom.Point{same, same}},                   // stationary short
		{ID: 2, Points: []geom.Point{same, same, same}},             // duplicate of 0
		{ID: 3, Points: []geom.Point{{X: 1, Y: 1}, {X: 1, Y: 1.1}}}, // nearly stationary
		{ID: 4, Points: []geom.Point{{X: 9, Y: 9}, {X: 9, Y: 9}}},   // far away
	})
	e, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	q := d.Trajs[0]
	got := e.Search(q, 0.5, nil)
	want := bruteSearch(d, measure.DTW{}, q, 0.5)
	if len(got) != len(want) {
		t.Fatalf("degenerate search: %d results, want %d", len(got), len(want))
	}
	// Self-join on degenerate data.
	e2, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	pairs := e.Join(e2, 0.5, DefaultJoinOptions(), nil)
	wantPairs := 0
	for _, a := range d.Trajs {
		for _, b := range d.Trajs {
			if (measure.DTW{}).Distance(a.Points, b.Points) <= 0.5 {
				wantPairs++
			}
		}
	}
	if len(pairs) != wantPairs {
		t.Fatalf("degenerate join: %d pairs, want %d", len(pairs), wantPairs)
	}
}

// NG=1 (single partition) must behave like a centralized index.
func TestSinglePartition(t *testing.T) {
	d := smallDataset(200, 40)
	opts := smallOpts(2)
	opts.NG = 1
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(e.Partitions()); got != 1 {
		t.Fatalf("NG=1 produced %d partitions", got)
	}
	q := gen.Queries(d, 1, 41)[0]
	want := bruteSearch(d, measure.DTW{}, q, 0.03)
	if got := e.Search(q, 0.03, nil); len(got) != len(want) {
		t.Fatalf("single-partition search: %d vs %d", len(got), len(want))
	}
}

// A huge tau returns everything exactly once.
func TestHugeTau(t *testing.T) {
	d := smallDataset(150, 42)
	e, err := NewEngine(d, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	q := d.Trajs[0]
	got := e.Search(q, math.Inf(1), nil)
	if len(got) != d.Len() {
		t.Fatalf("tau=+Inf returned %d of %d", len(got), d.Len())
	}
	seen := map[int]bool{}
	for _, r := range got {
		if seen[r.Traj.ID] {
			t.Fatal("duplicate under huge tau")
		}
		seen[r.Traj.ID] = true
	}
}

// Negative tau returns nothing: distances are non-negative, so even the
// exact self match (distance 0) fails 0 <= -1.
func TestNegativeTau(t *testing.T) {
	d := smallDataset(50, 43)
	e, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Search(d.Trajs[0], -1, nil); len(got) != 0 {
		t.Fatalf("negative tau returned %d results", len(got))
	}
}

// Extreme join options must not break correctness.
func TestJoinOptionExtremes(t *testing.T) {
	d := smallDataset(80, 44)
	want := bruteJoin(d, d, measure.DTW{}, 0.02)
	for _, opts := range []JoinOptions{
		{SampleRate: 1.0, Lambda: 1e9, DivisionQuantile: 0.5, Seed: 1},    // network-cost dominated
		{SampleRate: 0.01, Lambda: 1e-9, DivisionQuantile: 0.99, Seed: 2}, // compute dominated, tiny sample
		{SampleRate: -5, Lambda: -1, DivisionQuantile: 7, Seed: 3},        // nonsense -> defaults
	} {
		e1, err := NewEngine(d, smallOpts(4))
		if err != nil {
			t.Fatal(err)
		}
		e2, err := NewEngine(d, smallOpts(4))
		if err != nil {
			t.Fatal(err)
		}
		pairs := e1.Join(e2, 0.02, opts, nil)
		checkJoin(t, pairs, want, "extreme options")
	}
}

// Many more workers than partitions: everything still lands somewhere
// valid.
func TestMoreWorkersThanPartitions(t *testing.T) {
	d := smallDataset(60, 45)
	opts := DefaultOptions()
	opts.NG = 1
	opts.Cluster = cluster.New(cluster.DefaultConfig(16))
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := d.Trajs[0]
	want := bruteSearch(d, measure.DTW{}, q, 0.05)
	if got := e.Search(q, 0.05, nil); len(got) != len(want) {
		t.Fatalf("search with 16 workers 1 partition: %d vs %d", len(got), len(want))
	}
}

// Engines over an empty dataset behave sanely.
func TestEmptyDataset(t *testing.T) {
	d := traj.NewDataset("empty", nil)
	e, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	q := &traj.T{ID: 1, Points: []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}}
	if got := e.Search(q, 10, nil); len(got) != 0 {
		t.Errorf("empty dataset returned %d results", len(got))
	}
	if got := e.SearchKNN(q, 3); got != nil {
		t.Errorf("empty dataset kNN = %v", got)
	}
	e2, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if pairs := e.Join(e2, 10, DefaultJoinOptions(), nil); len(pairs) != 0 {
		t.Errorf("empty join = %d pairs", len(pairs))
	}
}
