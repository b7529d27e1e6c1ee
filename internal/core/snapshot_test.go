package core

import (
	"reflect"
	"testing"

	"dita/internal/gen"
	"dita/internal/measure"
	"dita/internal/oracle"
	"dita/internal/snap"
)

// TestColdStartMatchesFreshBuild is the core cold-start contract: an engine
// reassembled from snapshots answers searches, kNN, and joins identically
// to the engine that exported them.
func TestColdStartMatchesFreshBuild(t *testing.T) {
	d := smallDataset(400, 21)
	opts := smallOpts(4)
	opts.Measure = measure.LCSS{Eps: 0.002, Delta: 5}
	fresh, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Export through the full byte format — this is what disk round-trips.
	var snaps []*snap.Snapshot
	for _, p := range fresh.Partitions() {
		s, err := snap.Decode(snap.Encode(fresh.ExportSnapshot("trips", p)))
		if err != nil {
			t.Fatalf("partition %d: %v", p.ID, err)
		}
		snaps = append(snaps, s)
	}

	cold, err := NewEngineFromSnapshots(snaps, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if cold.BuildTime <= 0 {
		t.Error("cold start BuildTime not recorded")
	}
	if cold.Measure().Name() != "LCSS" {
		t.Fatalf("cold engine config drifted: measure=%s, want LCSS", cold.Measure().Name())
	}
	if l, ok := cold.Measure().(measure.LCSS); !ok || l.Delta != 5 || l.Eps != 0.002 {
		t.Fatalf("LCSS parameters lost: %+v", cold.Measure())
	}

	queries := gen.Queries(d, 10, 22)
	for _, q := range queries {
		want := fresh.Search(q, 5, nil)
		got := cold.Search(q, 5, nil)
		if !sameResults(want, got) {
			t.Fatalf("search differs for query %d: fresh %d results, cold %d", q.ID, len(want), len(got))
		}
		if err := oracle.DiffKNN(hitsOf(cold.SearchKNN(q, 5)), hitsOf(fresh.SearchKNN(q, 5))); err != nil {
			t.Fatalf("kNN differs for query %d, cold against fresh: %v", q.ID, err)
		}
	}
}

// sameResults reports whether two search answers are the same, hit for hit
// and bit for bit.
func sameResults(a, b []SearchResult) bool {
	return oracle.DiffSearch(hitsOf(a), hitsOf(b)) == nil
}

func TestColdStartValidation(t *testing.T) {
	d := smallDataset(150, 23)
	e, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*snap.Snapshot
	for _, p := range e.Partitions() {
		snaps = append(snaps, e.ExportSnapshot("trips", p))
	}

	if _, err := NewEngineFromSnapshots(nil, smallOpts(2)); err == nil {
		t.Error("empty snapshot set accepted")
	}
	if _, err := NewEngineFromSnapshots(snaps[1:], smallOpts(2)); err == nil {
		t.Error("incomplete snapshot set accepted")
	}
	mixed := append([]*snap.Snapshot(nil), snaps...)
	clone := *mixed[1]
	clone.Opts.NLPivot++
	mixed[1] = &clone
	if _, err := NewEngineFromSnapshots(mixed, smallOpts(2)); err == nil {
		t.Error("mixed build options accepted")
	}
	other := *snaps[0]
	other.Dataset = "other"
	if _, err := NewEngineFromSnapshots(append([]*snap.Snapshot{&other}, snaps[1:]...), smallOpts(2)); err == nil {
		t.Error("mixed datasets accepted")
	}
}

func TestMeasureParamsRoundTrip(t *testing.T) {
	for _, m := range []measure.Measure{
		measure.DTW{},
		measure.Frechet{},
		measure.EDR{Eps: 0.01},
		measure.LCSS{Eps: 0.02, Delta: 7},
		measure.ERP{},
		measure.Hausdorff{},
	} {
		name, eps, delta := MeasureParams(m)
		got, err := measure.ByName(name, eps, delta)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("measure %s did not round-trip: got %+v", m.Name(), got)
		}
	}
}
