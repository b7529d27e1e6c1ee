package dnet

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dita/internal/core"
	"dita/internal/gen"
	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/obs"
	"dita/internal/oracle"
	"dita/internal/snap"
	"dita/internal/traj"
)

// checkNetDifferentialM holds the live cluster's threshold search, kNN and
// self-join to the oracle's over the logical model under measure m, and the
// layout to what the partitions show.
func checkNetDifferentialM(t *testing.T, c *Coordinator, name string, model map[int]*traj.T, qs []*traj.T, tau float64, m measure.Measure) {
	t.Helper()
	layoutOK(t, c, name, model)
	members := visibleOf(model)
	checkNetSelfJoin(t, c, name, model, tau, m)
	for qi, q := range qs {
		hits, err := c.Search(name, q, tau)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		checkSearch(t, hits, members, m, q, tau)
		for _, k := range []int{1, 5, 7, 17, len(members) + 3} {
			got, err := c.SearchKNN(name, q, k)
			if err != nil {
				t.Fatalf("knn query %d k=%d: %v", qi, k, err)
			}
			checkKNN(t, fmt.Sprintf("query %d", qi), got, members, m, q, k)
		}
	}
}

// livePartIDs returns the dataset's non-retired partition ids (nil when
// the dataset is unknown); liveParts is the failing-test wrapper.
func livePartIDs(c *Coordinator, name string) []int {
	dd, err := c.dataset(name)
	if err != nil {
		return nil
	}
	dd.mu.Lock()
	defer dd.mu.Unlock()
	var out []int
	for pid := range dd.parts {
		if !dd.lay.Retired(pid) {
			out = append(out, pid)
		}
	}
	return out
}

func liveParts(t *testing.T, c *Coordinator, name string) []int {
	t.Helper()
	out := livePartIDs(c, name)
	if len(out) == 0 {
		t.Fatalf("dataset %q has no live partitions", name)
	}
	return out
}

// TestNetRebalanceDifferentialAllMeasures is the differential rebalance
// contract on a live replicated TCP cluster, once per measure:
// interleave streamed inserts, upserts and deletes with an online split
// and an online merge, and after every phase the mutated-and-recut
// cluster must answer threshold search and kNN exactly as brute force
// over the logical model — the rebalance may move data, never change
// answers. Join is covered separately (TestNetRebalanceJoinDifferential)
// to keep the five-way matrix fast.
func TestNetRebalanceDifferentialAllMeasures(t *testing.T) {
	cases := []struct {
		name string
		spec MeasureSpec
		m    measure.Measure
		tau  float64
	}{
		{"dtw", MeasureSpec{Name: "DTW"}, measure.DTW{}, 0.01},
		{"frechet", MeasureSpec{Name: "FRECHET"}, measure.Frechet{}, 0.005},
		{"edr", MeasureSpec{Name: "EDR", Eps: 0.002}, measure.EDR{Eps: 0.002}, 6},
		{"lcss", MeasureSpec{Name: "LCSS", Eps: 0.002, Delta: 5}, measure.LCSS{Eps: 0.002, Delta: 5}, 0.7},
		{"erp", MeasureSpec{Name: "ERP"}, measure.ERP{}, 0.05},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			d := gen.Generate(gen.BeijingLike(120, 401))
			extra := gen.Generate(gen.BeijingLike(90, 402))
			cfg := chaosConfig()
			cfg.Measure = tc.spec
			_, _, _, c := ingestCluster(t, 3, cfg, 1<<10, 0)
			if err := c.Dispatch("trips", d); err != nil {
				t.Fatal(err)
			}
			model := map[int]*traj.T{}
			for _, tr := range d.Trajs {
				model[tr.ID] = tr
			}
			qs := gen.Queries(d, 3, 403)

			// Phase 1: stream inserts, then split a live partition in place.
			for i := 0; i < 40; i++ {
				nt := &traj.T{ID: 500000 + i, Points: extra.Trajs[i].Points}
				if err := c.Ingest("trips", nt); err != nil {
					t.Fatalf("insert %d: %v", nt.ID, err)
				}
				model[nt.ID] = nt
			}
			before := liveParts(t, c, "trips")
			st, err := c.SplitPartition("trips", before[0], 3)
			if err != nil {
				t.Fatalf("split: %v", err)
			}
			if len(st.Created) == 0 || st.Trajs == 0 {
				t.Fatalf("split moved nothing: %+v", st)
			}
			checkNetDifferentialM(t, c, "trips", model, qs, tc.tau, tc.m)

			// Phase 2: upserts and deletes across old and new partitions,
			// then merge two live partitions back together.
			for j := 0; j < 20; j++ {
				id := d.Trajs[j].ID
				nt := &traj.T{ID: id, Points: extra.Trajs[40+j].Points}
				if err := c.Ingest("trips", nt); err != nil {
					t.Fatalf("upsert %d: %v", id, err)
				}
				model[id] = nt
			}
			for j := 20; j < 35; j++ {
				id := d.Trajs[j].ID
				ok, err := c.Delete("trips", id)
				if err != nil || !ok {
					t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
				}
				delete(model, id)
			}
			live := liveParts(t, c, "trips")
			if len(live) < 2 {
				t.Fatalf("want >= 2 live partitions, have %v", live)
			}
			if _, err := c.MergePartitions("trips", live[:2]); err != nil {
				t.Fatalf("merge: %v", err)
			}
			checkNetDifferentialM(t, c, "trips", model, qs, tc.tau, tc.m)

			// Phase 3: writes AFTER the cutovers land in the re-cut layout.
			for i := 40; i < 70; i++ {
				nt := &traj.T{ID: 500000 + i, Points: extra.Trajs[i%90].Points}
				if err := c.Ingest("trips", nt); err != nil {
					t.Fatalf("post-cutover insert %d: %v", nt.ID, err)
				}
				model[nt.ID] = nt
			}
			checkNetDifferentialM(t, c, "trips", model, qs, tc.tau, tc.m)
		})
	}
}

// TestNetRebalanceConcurrentWrites races streamed writes against live
// cutovers: writers blocked on a partition mid-cutover must re-route to
// the piece that now owns their trajectory, every ack must stick, and
// the final state must match the model exactly. This is the
// interleaving the per-partition write locks and the locked-then-
// revalidate dance in lockPartitionWrite exist for; run under -race.
func TestNetRebalanceConcurrentWrites(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(100, 481))
	extra := gen.Generate(gen.BeijingLike(120, 482))
	_, _, _, c := ingestCluster(t, 3, chaosConfig(), 1<<30, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	model := map[int]*traj.T{}
	var omu sync.Mutex
	for _, tr := range d.Trajs {
		model[tr.ID] = tr
	}
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				nt := &traj.T{ID: 500000 + g*1000 + i, Points: extra.Trajs[(g*40+i)%120].Points}
				if err := c.Ingest("trips", nt); err != nil {
					errc <- err
					return
				}
				omu.Lock()
				model[nt.ID] = nt
				omu.Unlock()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 3; round++ {
			live := livePartIDs(c, "trips")
			if len(live) == 0 {
				return
			}
			if _, err := c.SplitPartition("trips", live[round%len(live)], 2); err != nil {
				errc <- err
				return
			}
			live = livePartIDs(c, "trips")
			if len(live) >= 2 {
				if _, err := c.MergePartitions("trips", live[:2]); err != nil {
					errc <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	checkNetDifferentialM(t, c, "trips", model, gen.Queries(d, 3, 483), 0.01, measure.DTW{})
}

// TestNumPartitionsDuringCutover: NumPartitions reads the layout under the
// dataset lock, so polling it beside cutovers is race-free (run under
// -race), and the count it reports only ever grows.
func TestNumPartitionsDuringCutover(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(100, 484))
	c, stop := startCluster(t, 3, testConfig())
	defer stop()
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		last := 0
		for {
			n, err := c.NumPartitions("trips")
			if err == nil && n < last {
				err = fmt.Errorf("partition count fell from %d to %d", last, n)
			}
			if err != nil {
				polled <- err
				return
			}
			last = n
			select {
			case <-done:
				polled <- nil
				return
			default:
			}
		}
	}()
	for round := 0; round < 3; round++ {
		live := liveParts(t, c, "trips")
		if _, err := c.SplitPartition("trips", live[round%len(live)], 2); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if err := <-polled; err != nil {
		t.Fatal(err)
	}
	n, err := c.NumPartitions("trips")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(livePartIDs(c, "trips")) + 3; n != want {
		t.Fatalf("NumPartitions = %d after three splits, want %d", n, want)
	}
}

// TestNetRebalanceJoinDifferential: the join shuffle must read the
// re-cut layout, not the dispatch-time one — join a split-and-merged
// mutated dataset against a freshly dispatched probe set and compare
// with brute force over the model.
func TestNetRebalanceJoinDifferential(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(130, 411))
	extra := gen.Generate(gen.BeijingLike(80, 412))
	_, _, _, c := ingestCluster(t, 3, chaosConfig(), 1<<10, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	model := map[int]*traj.T{}
	for _, tr := range d.Trajs {
		model[tr.ID] = tr
	}
	for i := 0; i < 30; i++ {
		nt := &traj.T{ID: 500000 + i, Points: extra.Trajs[i].Points}
		if err := c.Ingest("trips", nt); err != nil {
			t.Fatal(err)
		}
		model[nt.ID] = nt
	}
	for j := 0; j < 15; j++ {
		id := d.Trajs[j].ID
		if ok, err := c.Delete("trips", id); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
		}
		delete(model, id)
	}
	live := liveParts(t, c, "trips")
	if _, err := c.SplitPartition("trips", live[len(live)-1], 2); err != nil {
		t.Fatal(err)
	}
	live = liveParts(t, c, "trips")
	if _, err := c.MergePartitions("trips", live[:2]); err != nil {
		t.Fatal(err)
	}

	probes := &traj.Dataset{Name: "probes"}
	for i, tr := range extra.Trajs[50:80] {
		probes.Trajs = append(probes.Trajs, &traj.T{ID: 600000 + i, Points: tr.Points})
	}
	if err := c.Dispatch("probes", probes); err != nil {
		t.Fatal(err)
	}
	tau := 0.01
	pairs, err := c.Join("trips", "probes", tau)
	if err != nil {
		t.Fatal(err)
	}
	checkJoin(t, pairs, oracle.Join(visibleOf(model), probes.Trajs, measure.DTW{}, tau))
}

// TestNetRebalancePolicyReducesSkew drives the planner end to end: a
// hotspot ingest stream aimed at one partition (cloned dispatched
// geometry routes every write to the same place) must push occupancy
// skew past the bound, Rebalance must bring it back within a ≥2×
// reduction without changing a single answer, and the cutovers must be
// visible in the coordinator's metrics.
func TestNetRebalancePolicyReducesSkew(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(90, 421))
	cfg := chaosConfig()
	cfg.Obs = obs.New()
	_, _, _, c := ingestCluster(t, 3, cfg, 1<<30, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	model := map[int]*traj.T{}
	for _, tr := range d.Trajs {
		model[tr.ID] = tr
	}
	// Hotspot: every insert clones one dispatched trajectory's geometry
	// with a tiny per-clone jitter, so endpoint routing lands them all in
	// that trajectory's partition while their first points stay separable
	// by fresh STR cuts (identical keys cannot be split apart).
	hot := d.Trajs[0]
	for i := 0; i < 120; i++ {
		pts := make([]geom.Point, len(hot.Points))
		off := float64(i) * 1e-6
		for pi, p := range hot.Points {
			pts[pi] = geom.Point{X: p.X + off, Y: p.Y + off}
		}
		nt := &traj.T{ID: 500000 + i, Points: pts}
		if err := c.Ingest("trips", nt); err != nil {
			t.Fatalf("hotspot insert %d: %v", nt.ID, err)
		}
		model[nt.ID] = nt
	}
	skewBefore, err := c.OccupancySkew("trips")
	if err != nil {
		t.Fatal(err)
	}
	pol := core.RebalancePolicy{SkewBound: 2, MaxPieces: 8, MergeFraction: 0.25}
	if skewBefore <= pol.SkewBound {
		t.Fatalf("hotspot did not skew the dataset: skew %.2f <= bound %.2f", skewBefore, pol.SkewBound)
	}
	steps, converged, err := c.Rebalance("trips", pol)
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if len(steps) == 0 {
		t.Fatal("planner took no action above the skew bound")
	}
	if !converged {
		t.Fatal("rebalance hit the step budget without converging")
	}
	skewAfter, err := c.OccupancySkew("trips")
	if err != nil {
		t.Fatal(err)
	}
	if skewAfter*2 > skewBefore {
		t.Fatalf("rebalance reduced skew %.2f -> %.2f, want >= 2x reduction", skewBefore, skewAfter)
	}
	if n := cfg.Obs.Counter("coord_rebalance_total").Value(); n < 1 {
		t.Fatalf("coord_rebalance_total = %d, want >= 1", n)
	}
	if g := cfg.Obs.FloatGauge("coord_occupancy_skew").Value(); g != skewAfter {
		t.Fatalf("coord_occupancy_skew gauge %.3f, want %.3f", g, skewAfter)
	}
	checkNetDifferentialM(t, c, "trips", model, gen.Queries(d, 3, 423), 0.01, measure.DTW{})

	// Idempotence: a second pass over the balanced dataset is a no-op.
	steps, converged, err = c.Rebalance("trips", pol)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 0 {
		t.Fatalf("second rebalance took %d steps over a balanced dataset", len(steps))
	}
	if !converged {
		t.Fatal("no-op rebalance reported non-convergence")
	}
}

// TestNetRebalanceEmptyMerge: merging partitions whose members were all
// deleted must leave the dataset routable (one live empty piece), and
// later inserts must land and be findable.
func TestNetRebalanceEmptyMerge(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(40, 431))
	_, _, dirs, c := ingestCluster(t, 2, chaosConfig(), 1<<30, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	for _, tr := range d.Trajs {
		if ok, err := c.Delete("trips", tr.ID); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", tr.ID, ok, err)
		}
	}
	live := liveParts(t, c, "trips")
	if len(live) < 2 {
		t.Skipf("dataset dispatched as %d partition(s); empty-merge needs 2", len(live))
	}
	st, err := c.MergePartitions("trips", live)
	if err != nil {
		t.Fatalf("empty merge: %v", err)
	}
	if st.Trajs != 0 || len(st.Created) != 1 {
		t.Fatalf("empty merge stats: %+v, want one empty piece", st)
	}
	// The empty piece went the way every piece goes — sealed once, shipped
	// as an image, decoded: each replica holds a file that verifies to zero
	// members, and the empty layout answers (with nothing) rather than fails.
	held := 0
	for _, dir := range dirs {
		sn, err := snap.LoadFile(filepath.Join(dir, snap.Filename("trips", st.Created[0])))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil || len(sn.Trajs) != 0 {
			t.Fatalf("empty piece in %s: %d members, err %v", dir, len(sn.Trajs), err)
		}
		held++
	}
	if held != chaosConfig().Replicas {
		t.Fatalf("empty piece is on disk at %d workers, want %d", held, chaosConfig().Replicas)
	}
	if hits, err := c.Search("trips", d.Trajs[0], 0.01); err != nil || len(hits) != 0 {
		t.Fatalf("search over the empty layout: %d hits, err %v", len(hits), err)
	}
	model := map[int]*traj.T{}
	extra := gen.Generate(gen.BeijingLike(10, 432))
	for i, tr := range extra.Trajs {
		nt := &traj.T{ID: 700000 + i, Points: tr.Points}
		if err := c.Ingest("trips", nt); err != nil {
			t.Fatalf("insert into empty layout: %v", err)
		}
		model[nt.ID] = nt
	}
	checkNetDifferentialM(t, c, "trips", model, gen.Queries(extra, 2, 433), 0.01, measure.DTW{})
}

// TestChaosCutoverAbortNeverAMix is the crash-window contract: a worker
// dying mid-cutover (here: before the piece loads, so they fail) must
// leave the OLD layout fully intact — never a mix. The split fails
// cleanly, the layout is unchanged, queries fail over to the surviving
// replica and stay exact, and the survivor holds no orphan piece.
func TestChaosCutoverAbortNeverAMix(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(100, 441))
	workers, _, _, c := ingestCluster(t, 2, chaosConfig(), 1<<30, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	npBefore, err := c.NumPartitions("trips")
	if err != nil {
		t.Fatal(err)
	}
	liveBefore := liveParts(t, c, "trips")

	// Kill worker 1 without giving the failure detector time to notice:
	// placement still selects it, and its piece loads fail mid-cutover.
	workers[1].Close()
	if _, err := c.SplitPartition("trips", liveBefore[0], 3); err == nil {
		t.Fatal("split with a dead placement target succeeded, want abort")
	}

	// Old layout intact: same partition count, same live set.
	npAfter, err := c.NumPartitions("trips")
	if err != nil {
		t.Fatal(err)
	}
	if npAfter != npBefore {
		t.Fatalf("aborted cutover changed partition count %d -> %d", npBefore, npAfter)
	}
	liveAfter := liveParts(t, c, "trips")
	if len(liveAfter) != len(liveBefore) {
		t.Fatalf("aborted cutover changed live set %v -> %v", liveBefore, liveAfter)
	}
	for i := range liveBefore {
		if liveAfter[i] != liveBefore[i] {
			t.Fatalf("aborted cutover changed live set %v -> %v", liveBefore, liveAfter)
		}
	}
	// The survivor holds only old-layout partitions — no orphan pieces.
	workers[0].mu.RLock()
	for k := range workers[0].parts {
		if k.dataset == "trips" && k.id >= npBefore {
			workers[0].mu.RUnlock()
			t.Fatalf("survivor holds orphan piece %d from the aborted cutover", k.id)
		}
	}
	workers[0].mu.RUnlock()
	// Queries fail over to the survivor and stay exact.
	model := map[int]*traj.T{}
	for _, tr := range d.Trajs {
		model[tr.ID] = tr
	}
	checkNetDifferentialM(t, c, "trips", model, gen.Queries(d, 2, 442), 0.01, measure.DTW{})
}

// TestChaosCoordinatorRestartAfterMergeKeepsOverlays is the first gap
// regression from the serving design doc: workers fold their overlays
// into new bases (merges), the coordinator restarts, and recovery —
// NOT re-dispatch — must rebuild routing from worker manifests so every
// acked write stays visible and every answer stays exact.
func TestChaosCoordinatorRestartAfterMergeKeepsOverlays(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(120, 451))
	extra := gen.Generate(gen.BeijingLike(80, 452))
	cfg := chaosConfig()
	// 1 KiB merge threshold: bases fold mid-stream, so the workers'
	// fingerprints diverge from every dispatch payload and a re-dispatch
	// could not reuse them — recovery must not depend on either.
	workers, addrs, _, c := ingestCluster(t, 3, cfg, 1<<10, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	model := map[int]*traj.T{}
	for _, tr := range d.Trajs {
		model[tr.ID] = tr
	}
	for i := 0; i < 50; i++ {
		nt := &traj.T{ID: 500000 + i, Points: extra.Trajs[i].Points}
		if err := c.Ingest("trips", nt); err != nil {
			t.Fatalf("insert %d: %v", nt.ID, err)
		}
		model[nt.ID] = nt
	}
	for j := 0; j < 20; j++ {
		id := d.Trajs[j].ID
		if ok, err := c.Delete("trips", id); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
		}
		delete(model, id)
	}
	// Make sure the overlay fold actually happened somewhere.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var merges int64
		for _, w := range workers {
			merges += w.merges.Load()
		}
		if merges > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no worker merged its overlay; the regression needs folded bases")
		}
		time.Sleep(10 * time.Millisecond)
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
	if rep.Trajs != len(model) {
		t.Fatalf("recovery found %d visible trajectories, model has %d", rep.Trajs, len(model))
	}
	checkNetDifferentialM(t, c2, "trips", model, gen.Queries(d, 3, 453), 0.01, measure.DTW{})

	// Recovered datasets must keep taking writes with correct dedupe
	// floors: a fresh upsert must apply, not be dropped as a replay.
	victim := -1
	for id := range model {
		victim = id
		break
	}
	up := &traj.T{ID: victim, Points: extra.Trajs[60].Points}
	if err := c2.Ingest("trips", up); err != nil {
		t.Fatal(err)
	}
	model[victim] = up
	checkNetDifferentialM(t, c2, "trips", model, gen.Queries(d, 2, 454), 0.01, measure.DTW{})
}

// TestChaosRecoverFindsOutlierOutsideDispatchMBR is the second gap
// regression: an ingested trajectory far outside its partition's
// dispatch-time MBR must stay findable after a coordinator restart.
// Recovery manifests carry TRUE current bounds; a re-dispatch would
// restore the stale dispatch-time MBRs and global pruning would
// wrongly exclude the outlier's partition.
func TestChaosRecoverFindsOutlierOutsideDispatchMBR(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(80, 461))
	cfg := chaosConfig()
	_, addrs, _, c := ingestCluster(t, 3, cfg, 1<<30, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	model := map[int]*traj.T{}
	for _, tr := range d.Trajs {
		model[tr.ID] = tr
	}
	// The generator confines trajectories to a small lat/lon box; (50,50)
	// is far outside every dispatch-time MBR.
	outlier := &traj.T{ID: 900001, Points: []geom.Point{{X: 50, Y: 50}, {X: 50.001, Y: 50.001}, {X: 50.002, Y: 50.002}}}
	if err := c.Ingest("trips", outlier); err != nil {
		t.Fatal(err)
	}
	model[outlier.ID] = outlier

	c.Close()
	c2, err := Connect(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })
	if _, err := c2.RecoverDataset("trips"); err != nil {
		t.Fatalf("recover: %v", err)
	}
	// A tight threshold query at the outlier's location: global pruning
	// over stale dispatch MBRs would skip its partition and return
	// nothing; the true-bounds recovery must return exactly the outlier.
	probe := &traj.T{ID: -1, Points: outlier.Points}
	hits, err := c2.Search("trips", probe, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].ID != outlier.ID {
		t.Fatalf("outlier query got %v, want exactly id %d — stale dispatch MBRs pruned the ingested outlier", hits, outlier.ID)
	}
	checkNetDifferentialM(t, c2, "trips", model, gen.Queries(d, 2, 462), 0.01, measure.DTW{})
}

// TestChaosRecoverAfterCutoverAndRestart: a rebalance cutover followed
// by a coordinator restart must recover the NEW layout (higher pids win
// overlap resolution) with nothing lost.
func TestChaosRecoverAfterCutoverAndRestart(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(100, 471))
	extra := gen.Generate(gen.BeijingLike(40, 472))
	cfg := chaosConfig()
	_, addrs, _, c := ingestCluster(t, 3, cfg, 1<<30, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	model := map[int]*traj.T{}
	for _, tr := range d.Trajs {
		model[tr.ID] = tr
	}
	for i := 0; i < 30; i++ {
		nt := &traj.T{ID: 500000 + i, Points: extra.Trajs[i].Points}
		if err := c.Ingest("trips", nt); err != nil {
			t.Fatal(err)
		}
		model[nt.ID] = nt
	}
	live := liveParts(t, c, "trips")
	st, err := c.SplitPartition("trips", live[0], 2)
	if err != nil {
		t.Fatal(err)
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
	for _, pid := range rep.Recovered {
		for _, retired := range st.Retired {
			if pid == retired {
				t.Fatalf("recovery resurrected retired partition %d: %+v", pid, rep)
			}
		}
	}
	if rep.Trajs != len(model) {
		t.Fatalf("recovery found %d visible trajectories, model has %d", rep.Trajs, len(model))
	}
	checkNetDifferentialM(t, c2, "trips", model, gen.Queries(d, 3, 473), 0.01, measure.DTW{})
}
