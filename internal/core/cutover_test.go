package core

import (
	"testing"
	"time"

	"dita/internal/gen"
	"dita/internal/geom"
	"dita/internal/snap"
	"dita/internal/traj"
	"dita/internal/wal"
)

// TestCutoverCloneHotspot: a hotspot of members sharing one first point
// cannot be divided by an STR cut, whose ties send every such key to one
// tile. Rebalance must still converge — the split that cannot cut is a
// no-op — leave no live partition empty, and keep every answer exact.
func TestCutoverCloneHotspot(t *testing.T) {
	d := smallDataset(200, 801)
	e, err := NewEngine(d, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnableIngest(IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	want := map[int]*traj.T{}
	for _, tr := range d.Trajs {
		want[tr.ID] = tr
	}
	first := d.Trajs[0].First()
	for i, tr := range skewPool(400, 50000, first, 802) {
		tr.Points[0] = first
		if err := e.Insert(tr); err != nil {
			t.Fatalf("clone %d: %v", i, err)
		}
		want[tr.ID] = tr
	}
	steps, converged, err := e.Rebalance(RebalancePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Fatalf("rebalance did not converge in %d steps", len(steps))
	}
	e.mu.RLock()
	v := e.lay.View()
	e.mu.RUnlock()
	for pid, b := range v.Bounds {
		if !b.Retired && v.Live[pid] == 0 {
			t.Fatalf("live partition %d is empty after %d steps", pid, len(steps))
		}
	}
	checkVisible(t, e, want, gen.Queries(d, 4, 803), "clone-hotspot")
}

// TestCutoverDoesNotBlockReads holds a split after its pieces are sealed:
// a search, and an insert to a partition outside the group, must return
// while it is held, and every answer is exact once it completes.
func TestCutoverDoesNotBlockReads(t *testing.T) {
	dir := t.TempDir()
	snapStore, err := snap.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	walStore, err := wal.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := smallDataset(200, 811)
	e, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	sealAll(t, e, snapStore)
	if _, err := e.EnableIngest(IngestConfig{WAL: walStore, Snap: snapStore}); err != nil {
		t.Fatal(err)
	}
	want := map[int]*traj.T{}
	for _, tr := range d.Trajs {
		want[tr.ID] = tr
	}
	queries := gen.Queries(d, 3, 812)
	hot := hottestLive(e)
	var outside *traj.T
	for _, tr := range d.Trajs {
		if e.lay.loc[tr.ID] != hot.ID {
			outside = tr
			break
		}
	}
	moved := make([]geom.Point, len(outside.Points))
	for i, p := range outside.Points {
		moved[i] = geom.Point{X: p.X + 1e-4, Y: p.Y - 1e-4}
	}
	upsert := &traj.T{ID: outside.ID, Points: moved}

	held, resume := make(chan struct{}), make(chan struct{})
	restore := SetCutoverHook(func(stage string) bool {
		if stage == "pieces-sealed" {
			close(held)
			<-resume
		}
		return false
	})
	defer restore()
	type result struct {
		st  *RebalanceStats
		err error
	}
	split := make(chan result, 1)
	go func() {
		st, err := e.SplitPartition(hot.ID, 3)
		split <- result{st, err}
	}()
	released := false
	release := func() {
		if !released {
			released = true
			close(resume)
		}
	}
	defer release()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the split never reached pieces-sealed")
	}

	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			f()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			release()
			t.Fatalf("%s did not return while a split was held", what)
		}
	}
	var got []SearchResult
	within("a search", func() { got = e.Search(queries[0], 0.05, nil) })
	checkSearch(t, "during the cutover", got, visibleDataset(want).Trajs, e.Measure(), queries[0], 0.05)
	var insErr error
	within("an insert outside the group", func() { insErr = e.Insert(upsert) })
	if insErr != nil {
		t.Fatal(insErr)
	}
	want[upsert.ID] = upsert

	release()
	res := <-split
	if res.err != nil || res.st == nil || !hot.Retired() {
		t.Fatalf("held split: stats %+v, err %v", res.st, res.err)
	}
	checkVisible(t, e, want, queries, "after-held-split")
	cold, _ := coldStart(t, snapStore, walStore, smallOpts(2))
	checkVisible(t, cold, want, queries, "recovered")
}
