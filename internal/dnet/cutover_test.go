package dnet

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dita/internal/core"
	"dita/internal/gen"
	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/traj"
)

// TestCutoverCloneHotspot: clones of one trajectory, only their last point
// jittered, pile onto one partition and share one first point, which no
// STR cut can divide. Rebalance must converge instead of exporting and
// re-loading the same piece until its budget runs out, leave no live
// partition empty, and keep every answer exact.
func TestCutoverCloneHotspot(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(90, 421))
	_, _, _, c := ingestCluster(t, 3, chaosConfig(), 1<<30, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	model := map[int]*traj.T{}
	for _, tr := range d.Trajs {
		model[tr.ID] = tr
	}
	rng := rand.New(rand.NewSource(422))
	for i := 0; i < 200; i++ {
		pts := slices.Clone(d.Trajs[0].Points)
		last := &pts[len(pts)-1]
		last.X += (rng.Float64() - 0.5) * 1e-3
		last.Y += (rng.Float64() - 0.5) * 1e-3
		clone := &traj.T{ID: 600000 + i, Points: pts}
		if err := c.Ingest("trips", clone); err != nil {
			t.Fatalf("clone %d: %v", i, err)
		}
		model[clone.ID] = clone
	}
	steps, converged, err := c.Rebalance("trips", core.RebalancePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Fatalf("rebalance did not converge in %d steps", len(steps))
	}
	dd, err := c.dataset("trips")
	if err != nil {
		t.Fatal(err)
	}
	v := dd.view()
	for pid, b := range v.Bounds {
		if !b.Retired && v.Live[pid] == 0 {
			t.Fatalf("live partition %d is empty after %d steps", pid, len(steps))
		}
	}
	checkNetDifferentialM(t, c, "trips", model, gen.Queries(d, 2, 423), 0.01, measure.DTW{})
}

// TestCutoverDoesNotBlockReads holds a split after its pieces are loaded:
// a search, and an insert to a partition outside the group, must return
// while it is held, and every answer is exact once it completes.
func TestCutoverDoesNotBlockReads(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(100, 491))
	_, _, _, c := ingestCluster(t, 3, chaosConfig(), 1<<30, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	model := map[int]*traj.T{}
	for _, tr := range d.Trajs {
		model[tr.ID] = tr
	}
	qs := gen.Queries(d, 2, 492)
	victim := liveParts(t, c, "trips")[0]
	dd, err := c.dataset("trips")
	if err != nil {
		t.Fatal(err)
	}
	var outside *traj.T
	dd.mu.Lock()
	for _, tr := range d.Trajs {
		if pid, _ := dd.lay.Locate(tr.ID); pid != victim {
			outside = tr
			break
		}
	}
	dd.mu.Unlock()
	moved := make([]geom.Point, len(outside.Points))
	for i, p := range outside.Points {
		moved[i] = geom.Point{X: p.X + 1e-4, Y: p.Y - 1e-4}
	}
	upsert := &traj.T{ID: outside.ID, Points: moved}

	held, resume := make(chan struct{}), make(chan struct{})
	restore := core.SetCutoverHook(func(stage string) bool {
		if stage == "pieces-loaded" {
			close(held)
			<-resume
		}
		return false
	})
	defer restore()
	type result struct {
		st  *core.RebalanceStats
		err error
	}
	split := make(chan result, 1)
	go func() {
		st, err := c.SplitPartition("trips", victim, 3)
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
		t.Fatal("the split never reached pieces-loaded")
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
	var hits []SearchHit
	var searchErr error
	within("a search", func() { hits, searchErr = c.Search("trips", qs[0], 0.01) })
	if searchErr != nil {
		t.Fatal(searchErr)
	}
	checkSearch(t, hits, visibleOf(model), measure.DTW{}, qs[0], 0.01)
	var insErr error
	within("an insert outside the group", func() { insErr = c.Ingest("trips", upsert) })
	if insErr != nil {
		t.Fatal(insErr)
	}
	model[upsert.ID] = upsert

	release()
	res := <-split
	if res.err != nil || res.st == nil {
		t.Fatalf("held split: stats %+v, err %v", res.st, res.err)
	}
	checkNetDifferentialM(t, c, "trips", model, qs, 0.01, measure.DTW{})
}

// TestCutoverCrashRecover crashes a split with its pieces loaded on the
// workers and nothing installed, then restarts the coordinator: recovery
// finds the old partition and its pieces holding the same ids, keeps one
// of them and drops the other, and the recovered layout shows exactly the
// pre-cutover visible set, each id once.
func TestCutoverCrashRecover(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(100, 481))
	extra := gen.Generate(gen.BeijingLike(30, 482))
	cfg := chaosConfig()
	_, addrs, _, c := ingestCluster(t, 3, cfg, 1<<30, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	model := map[int]*traj.T{}
	for _, tr := range d.Trajs {
		model[tr.ID] = tr
	}
	for i, tr := range extra.Trajs {
		nt := &traj.T{ID: 500000 + i, Points: tr.Points}
		if err := c.Ingest("trips", nt); err != nil {
			t.Fatal(err)
		}
		model[nt.ID] = nt
	}
	live := liveParts(t, c, "trips")
	restore := core.SetCutoverHook(func(stage string) bool { return stage == "pieces-loaded" })
	_, err := c.SplitPartition("trips", live[0], 3)
	restore()
	if !errors.Is(err, core.ErrCutoverCrashed) {
		t.Fatalf("want a simulated crash, got %v", err)
	}
	if got := liveParts(t, c, "trips"); !slices.Equal(got, live) {
		t.Fatalf("a crashed cutover installed: live %v -> %v", live, got)
	}

	c.Close()
	c2, err := Connect(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })
	rep, err := c2.RecoverDataset("trips")
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(rep.Dropped) == 0 {
		t.Fatalf("recovery dropped nothing over an overlapping layout: %+v", rep)
	}
	if rep.Trajs != len(model) {
		t.Fatalf("recovery found %d visible trajectories, model has %d", rep.Trajs, len(model))
	}
	checkNetDifferentialM(t, c2, "trips", model, gen.Queries(d, 3, 483), 0.01, measure.DTW{})
}
