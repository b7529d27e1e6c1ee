package core

import (
	"sync"
	"testing"
	"time"

	"dita/internal/gen"
	"dita/internal/obs"
	"dita/internal/traj"
)

func TestCostTrackerEWMAAndDrop(t *testing.T) {
	ct := NewCostTracker()
	ct.Observe(3, 100, 100*time.Microsecond)
	s := ct.Snapshot()
	if len(s) != 1 || s[0].Pid != 3 || s[0].Verified != 100 || s[0].VerifyUS != 100 || s[0].Queries != 1 {
		t.Fatalf("first observation should seed directly, got %+v", s)
	}
	ct.Observe(3, 200, 200*time.Microsecond)
	s = ct.Snapshot()
	// EWMA: 100 + 0.2*(200-100) = 120.
	if s[0].Verified != 120 || s[0].VerifyUS != 120 || s[0].Queries != 2 {
		t.Fatalf("EWMA fold wrong: %+v", s[0])
	}
	ct.Observe(7, 1, time.Microsecond)
	if s = ct.Snapshot(); len(s) != 2 || s[0].Pid != 3 || s[1].Pid != 7 {
		t.Fatalf("snapshot not sorted by pid: %+v", s)
	}
	ct.Drop(3)
	if s = ct.Snapshot(); len(s) != 1 || s[0].Pid != 7 {
		t.Fatalf("drop did not forget pid 3: %+v", s)
	}
	// A nil tracker is a valid disabled tracker.
	var nilCT *CostTracker
	nilCT.Observe(1, 1, time.Microsecond)
	nilCT.Drop(1)
	if nilCT.Snapshot() != nil {
		t.Fatal("nil tracker snapshot should be nil")
	}
}

// seedCosts gives every pid in cold a light cost history and hot a heavy
// one, all past the planner's minimum-observation bar.
func seedCosts(ct *CostTracker, hot int, cold []int, heavy, light time.Duration) {
	for i := 0; i < 4*costMinQueries; i++ {
		ct.Observe(hot, 1000, heavy)
		for _, p := range cold {
			ct.Observe(p, 10, light)
		}
	}
}

func TestCostHotGates(t *testing.T) {
	pol := RebalancePolicy{CostBound: 2}.Sanitized()
	live := []int{0, 1, 2, 3}

	// Disabled: nil tracker, zero bound, or fewer than two live pids.
	ct := NewCostTracker()
	seedCosts(ct, 0, live[1:], 10*time.Millisecond, 10*time.Microsecond)
	if pid, _ := CostHot(nil, live, pol); pid != -1 {
		t.Fatalf("nil tracker: pid %d, want -1", pid)
	}
	if pid, _ := CostHot(ct, live, RebalancePolicy{}.Sanitized()); pid != -1 {
		t.Fatalf("zero CostBound: pid %d, want -1", pid)
	}
	if pid, _ := CostHot(ct, []int{0}, pol); pid != -1 {
		t.Fatalf("single live pid: pid %d, want -1", pid)
	}

	// The seeded hotspot qualifies, with fan-out capped by MaxPieces.
	pid, k := CostHot(ct, live, pol)
	if pid != 0 {
		t.Fatalf("hot pid %d, want 0", pid)
	}
	if k < 2 || k > pol.MaxPieces {
		t.Fatalf("fan-out %d outside [2, %d]", k, pol.MaxPieces)
	}

	// Below the minimum observation count the signal is not trusted.
	fresh := NewCostTracker()
	fresh.Observe(0, 1000, 10*time.Millisecond)
	for _, p := range live[1:] {
		fresh.Observe(p, 10, 10*time.Microsecond)
	}
	if pid, _ := CostHot(fresh, live, pol); pid != -1 {
		t.Fatalf("one observation qualified as hot: pid %d, want -1", pid)
	}

	// A flat cost distribution never crosses CostBound x mean.
	flat := NewCostTracker()
	for i := 0; i < 2*costMinQueries; i++ {
		for _, p := range live {
			flat.Observe(p, 100, time.Millisecond)
		}
	}
	if pid, _ := CostHot(flat, live, pol); pid != -1 {
		t.Fatalf("flat costs qualified as hot: pid %d, want -1", pid)
	}

	// Live pids the tracker never saw count as zero cost, so one hot
	// partition among untracked siblings still qualifies.
	sparse := NewCostTracker()
	for i := 0; i < 2*costMinQueries; i++ {
		sparse.Observe(2, 500, 5*time.Millisecond)
	}
	if pid, _ := CostHot(sparse, live, pol); pid != 2 {
		t.Fatalf("sparse tracker: pid %d, want 2", pid)
	}
}

// TestAutopilotCostSplit drives the cost-aware planner end to end: a
// byte-balanced engine whose read cost concentrates on one partition
// splits exactly that partition, forgets its cost history at cutover,
// and keeps answering queries exactly like brute force.
func TestAutopilotCostSplit(t *testing.T) {
	d := smallDataset(300, 42)
	opts := smallOpts(4)
	e, err := NewEngine(d, opts)
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

	// Pick a live multi-member partition as the read hotspot and give the
	// tracker the history a skewed query workload would have written.
	hot := -1
	var cold []int
	for _, p := range e.parts {
		if p.retired || len(p.View().Visible()) < 2 {
			continue
		}
		if hot < 0 {
			hot = p.ID
		} else {
			cold = append(cold, p.ID)
		}
	}
	if hot < 0 || len(cold) == 0 {
		t.Fatal("dataset produced no splittable partitions")
	}
	seedCosts(e.cost, hot, cold, 20*time.Millisecond, 20*time.Microsecond)

	// A generous SkewBound keeps the byte path quiet (a freshly cut STR
	// layout can sit slightly above the default bound) and the near-zero
	// MergeFraction keeps cold merges quiet, so any action below is the
	// cost path's.
	pol := RebalancePolicy{SkewBound: 4, CostBound: 2, MergeFraction: 0.001}
	if _, _, skew := e.OccupancySkew(); skew > pol.SkewBound {
		t.Fatalf("base layout skew %.2f, cannot isolate the cost path", skew)
	}
	st, err := e.RebalanceOnce(pol)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("cost-hot partition did not trigger a split")
	}
	if len(st.Retired) != 1 || st.Retired[0] != hot {
		t.Fatalf("split retired %v, want [%d]", st.Retired, hot)
	}
	if len(st.Created) < 2 {
		t.Fatalf("split created %v, want >= 2 pieces", st.Created)
	}
	for _, pc := range e.PartitionCosts() {
		if pc.Pid == hot {
			t.Fatalf("retired pid %d still tracked after cutover", hot)
		}
	}
	checkVisible(t, e, want, gen.Queries(d, 3, 43), "cost-split")

	// The fresh pieces have no cost history, so a second pass is a no-op
	// — the built-in churn guard after a cost split.
	st, err = e.RebalanceOnce(pol)
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatalf("second pass acted (%v -> %v) with no fresh cost signal", st.Retired, st.Created)
	}
}

// TestSearchFeedsCostTracker: timed engines (a metrics registry) feed
// the tracker from the search path; untimed engines stay clock-free and
// record nothing.
func TestSearchFeedsCostTracker(t *testing.T) {
	d := smallDataset(200, 7)
	queries := gen.Queries(d, 5, 8)

	timedOpts := smallOpts(2)
	timedOpts.Obs = obs.New()
	te, err := NewEngine(d, timedOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		te.Search(q, 0.05, nil)
	}
	costs := te.PartitionCosts()
	if len(costs) == 0 {
		t.Fatal("timed engine recorded no partition costs")
	}
	for _, pc := range costs {
		if pc.Queries < 1 || pc.VerifyUS < 0 {
			t.Fatalf("bad cost entry %+v", pc)
		}
	}

	ue, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		ue.Search(q, 0.05, nil)
	}
	if costs := ue.PartitionCosts(); len(costs) != 0 {
		t.Fatalf("untimed engine recorded %d partition costs, want 0", len(costs))
	}
}

// TestRebalanceConvergenceBudget pins the Converged return: a planner
// with work left when the step budget runs out reports false; a balanced
// layout reports true.
func TestRebalanceConvergenceBudget(t *testing.T) {
	d := smallDataset(200, 11)
	e, err := NewEngine(d, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnableIngest(IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	// Pile a hotspot onto one partition so the planner has work.
	center := d.Trajs[0].First()
	for _, tr := range skewPool(150, 20000, center, 12) {
		if err := e.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, skew := e.OccupancySkew(); skew <= 2 {
		t.Skip("hotspot did not skew the layout")
	}

	old := rebalanceMaxSteps
	rebalanceMaxSteps = 0
	steps, converged, err := e.Rebalance(RebalancePolicy{})
	rebalanceMaxSteps = old
	if err != nil {
		t.Fatal(err)
	}
	if converged {
		t.Fatal("zero-step budget reported convergence over a skewed layout")
	}
	if len(steps) != 0 {
		t.Fatalf("zero-step budget took %d steps", len(steps))
	}

	// With the real budget the same layout converges.
	steps, converged, err = e.Rebalance(RebalancePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Fatalf("default budget did not converge after %d steps", len(steps))
	}
	if len(steps) == 0 {
		t.Fatal("planner took no action above the bound")
	}
}

// TestRebalanceSingleSnapshotRace is the regression test for the planner
// race: RebalanceOnce used to compute its split fan-out from a second
// OccupancySkew() taken after planRebalance released the lock, pairing a
// stale hot pid with a fan-out for a different layout when writers moved
// occupancy in between. Race writers against repeated planner steps
// (meaningful under -race) and hold the differential oracle at the end.
func TestRebalanceSingleSnapshotRace(t *testing.T) {
	d := smallDataset(200, 21)
	e, err := NewEngine(d, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnableIngest(IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	want := map[int]*traj.T{}
	var wantMu sync.Mutex
	for _, tr := range d.Trajs {
		want[tr.ID] = tr
	}

	center := d.Trajs[0].First()
	pool := skewPool(240, 30000, center, 22)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pool); i += 3 {
				if err := e.Insert(pool[i]); err != nil {
					t.Error(err)
					return
				}
				wantMu.Lock()
				want[pool[i].ID] = pool[i]
				wantMu.Unlock()
			}
		}(w)
	}
	stop := make(chan struct{})
	plannerDone := make(chan struct{})
	go func() {
		defer close(plannerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.RebalanceOnce(RebalancePolicy{}); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(stop)
	<-plannerDone
	if t.Failed() {
		t.FailNow()
	}

	// Settle the layout, then hold the oracle.
	if _, _, err := e.Rebalance(RebalancePolicy{}); err != nil {
		t.Fatal(err)
	}
	checkVisible(t, e, want, gen.Queries(d, 3, 23), "snapshot-race")
}
