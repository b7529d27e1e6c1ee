package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dita/internal/gen"
	"dita/internal/geom"
	"dita/internal/obs"
	"dita/internal/oracle"
	"dita/internal/snap"
	"dita/internal/traj"
	"dita/internal/wal"
)

// hottestLive returns the live partition with the largest occupancy
// (base plus overlay bytes), matching the planner's split choice.
func hottestLive(e *Engine) *Partition {
	var best *Partition
	bestOcc := -1
	for _, p := range e.parts {
		if p.retired {
			continue
		}
		if occ := p.bytes + p.overlayBytes(); occ > bestOcc {
			best, bestOcc = p, occ
		}
	}
	return best
}

// coldestLive returns the n live partitions with the smallest occupancy.
func coldestLive(e *Engine, n int) []int {
	type occ struct{ pid, bytes int }
	var live []occ
	for _, p := range e.parts {
		if !p.retired {
			live = append(live, occ{p.ID, p.bytes + p.overlayBytes()})
		}
	}
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			if live[j].bytes < live[i].bytes {
				live[i], live[j] = live[j], live[i]
			}
		}
	}
	if n > len(live) {
		n = len(live)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = live[i].pid
	}
	return out
}

// skewPool builds fresh trajectories clustered tightly around the given
// center, so sticky nearest-MBR routing piles them all onto one
// partition — the hot-spot ingest pattern re-partitioning exists for.
func skewPool(n int, idBase int, c geom.Point, seed int64) []*traj.T {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*traj.T, n)
	for i := range out {
		pts := make([]geom.Point, 5+rng.Intn(6))
		for j := range pts {
			pts[j] = geom.Point{X: c.X + rng.Float64()*0.002, Y: c.Y + rng.Float64()*0.002}
		}
		out[i] = &traj.T{ID: idBase + i, Points: pts}
	}
	return out
}

// TestRebalanceDifferential is the tentpole contract, once per measure:
// an engine mutated by interleaved inserts, upserts, deletes, splits,
// and merges answers every query exactly like brute force over the
// visible set — and, at the end, exactly like an engine rebuilt from
// scratch over that set, for Search, kNN, and Join.
func TestRebalanceDifferential(t *testing.T) {
	for mi, m := range sixMeasures() {
		m := m
		seed := int64(100 + 10*mi)
		t.Run(m.Name(), func(t *testing.T) {
			d := smallDataset(200, seed)
			opts := smallOpts(4)
			opts.Measure = m
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
			pool := mutPool(150, seed+1)
			queries := gen.Queries(d, 4, seed+2)
			rng := rand.New(rand.NewSource(seed + 3))
			next := 0

			randomVisible := func() int {
				ids := make([]int, 0, len(want))
				for id := range want {
					ids = append(ids, id)
				}
				for i := 1; i < len(ids); i++ {
					for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
						ids[j], ids[j-1] = ids[j-1], ids[j]
					}
				}
				return ids[rng.Intn(len(ids))]
			}

			for round := 0; round < 3; round++ {
				for i := 0; i < 15; i++ {
					tr := pool[next]
					next++
					if err := e.Insert(tr); err != nil {
						t.Fatal(err)
					}
					want[tr.ID] = tr
				}
				for i := 0; i < 5; i++ {
					id := randomVisible()
					up := &traj.T{ID: id, Points: pool[next].Points}
					next++
					if err := e.Insert(up); err != nil {
						t.Fatal(err)
					}
					want[id] = up
				}
				for i := 0; i < 5; i++ {
					id := randomVisible()
					if ok, err := e.Delete(id); err != nil || !ok {
						t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
					}
					delete(want, id)
				}
				switch round {
				case 0:
					// Split the hottest partition mid-overlay: the pieces are
					// cut from base − tombstones + delta, not from the stale
					// base alone.
					hot := hottestLive(e)
					st, err := e.SplitPartition(hot.ID, 3)
					if err != nil {
						t.Fatal(err)
					}
					if len(st.Retired) != 1 || st.Retired[0] != hot.ID || len(st.Created) == 0 {
						t.Fatalf("split stats: %+v", st)
					}
					if !hot.Retired() {
						t.Fatal("split partition not retired")
					}
					checkVisible(t, e, want, queries, "post-split")
				case 1:
					cold := coldestLive(e, 2)
					st, err := e.MergePartitions(cold)
					if err != nil {
						t.Fatal(err)
					}
					if len(st.Retired) != 2 || len(st.Created) != 1 {
						t.Fatalf("merge stats: %+v", st)
					}
					checkVisible(t, e, want, queries, "post-partition-merge")
				case 2:
					if err := e.MergeAll(); err != nil {
						t.Fatal(err)
					}
					checkVisible(t, e, want, queries, "post-merge-all")
				}
			}

			// Mutations after a cutover must land in the pieces and stay
			// deletable: upsert then delete a trajectory that moved.
			mv := randomVisible()
			up := &traj.T{ID: mv, Points: pool[next].Points}
			next++
			if err := e.Insert(up); err != nil {
				t.Fatal(err)
			}
			want[mv] = up
			if ok, err := e.Delete(mv); err != nil || !ok {
				t.Fatalf("delete moved %d: ok=%v err=%v", mv, ok, err)
			}
			delete(want, mv)
			checkVisible(t, e, want, queries, "post-cutover-mutations")

			// Final differential: rebuilt engine over the visible corpus.
			vis := visibleDataset(want)
			rebuilt, err := NewEngine(vis, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkRebuilt(t, e, rebuilt, vis.Trajs, queries)
			bcfg := gen.BeijingLike(60, seed+4)
			bcfg.Name = "B"
			b := gen.Generate(bcfg)
			for _, tr := range b.Trajs {
				tr.ID += 50000
			}
			eb, err := NewEngine(b, opts)
			if err != nil {
				t.Fatal(err)
			}
			pairs := e.Join(eb, 0.05, DefaultJoinOptions(), nil)
			checkJoin(t, pairs, oracle.Join(vis.Trajs, b.Trajs, m, 0.05), "rebalance-join")
		})
	}
}

// TestRebalanceQuick drives random interleavings of ingest, delete,
// split, and merge from a quick-generated seed; every sequence must
// leave the engine answering exactly like brute force over the visible
// set.
func TestRebalanceQuick(t *testing.T) {
	prop := func(seed int64) bool {
		d := smallDataset(80, 7)
		opts := smallOpts(3)
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
		pool := mutPool(60, seed)
		rng := rand.New(rand.NewSource(seed))
		next := 0
		for op := 0; op < 30; op++ {
			switch r := rng.Intn(10); {
			case r < 5 && next < len(pool):
				tr := pool[next]
				next++
				if err := e.Insert(tr); err != nil {
					t.Fatal(err)
				}
				want[tr.ID] = tr
			case r < 7 && len(want) > 10:
				ids := make([]int, 0, len(want))
				for id := range want {
					ids = append(ids, id)
				}
				for i := 1; i < len(ids); i++ {
					for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
						ids[j], ids[j-1] = ids[j-1], ids[j]
					}
				}
				id := ids[rng.Intn(len(ids))]
				if ok, err := e.Delete(id); err != nil || !ok {
					t.Fatal(err)
				}
				delete(want, id)
			case r < 8:
				hot := hottestLive(e)
				if _, err := e.SplitPartition(hot.ID, 2+rng.Intn(3)); err != nil {
					t.Fatal(err)
				}
			case r < 9:
				cold := coldestLive(e, 2)
				if len(cold) == 2 {
					if _, err := e.MergePartitions(cold); err != nil {
						t.Fatal(err)
					}
				}
			default:
				if err := e.MergeAll(); err != nil {
					t.Fatal(err)
				}
			}
		}
		vis := visibleDataset(want).Trajs
		m := e.Measure()
		for _, q := range gen.Queries(d, 2, seed+1) {
			if err := oracle.DiffSearch(hitsOf(e.Search(q, 0.05, nil)), oracle.Search(vis, m, q, 0.05)); err != nil {
				t.Logf("seed %d q=%d: search: %v", seed, q.ID, err)
				return false
			}
			if err := oracle.DiffKNN(hitsOf(e.SearchKNN(q, 5)), oracle.KNN(vis, m, q, 5)); err != nil {
				t.Logf("seed %d q=%d: knn: %v", seed, q.ID, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestRebalanceDurability: splits and merges interleaved with durable
// mutations survive a hard stop — the sealed snapshots (pieces plus
// tombstones) and the WAL suffixes reconstruct exactly the acked state,
// twice in a row.
func TestRebalanceDurability(t *testing.T) {
	dir := t.TempDir()
	snapStore, err := snap.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	walStore, err := wal.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := smallDataset(250, 201)
	opts := smallOpts(4)
	e, err := NewEngine(d, opts)
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
	pool := mutPool(120, 202)
	queries := gen.Queries(d, 5, 203)

	mutate := func(n, off int) {
		for i := 0; i < n; i++ {
			tr := pool[off+i]
			if err := e.Insert(tr); err != nil {
				t.Fatal(err)
			}
			want[tr.ID] = tr
		}
	}
	mutate(40, 0)
	hot := hottestLive(e)
	if _, err := e.SplitPartition(hot.ID, 3); err != nil {
		t.Fatal(err)
	}
	mutate(30, 40)
	cold := coldestLive(e, 2)
	if _, err := e.MergePartitions(cold); err != nil {
		t.Fatal(err)
	}
	mutate(10, 70)
	// Delete one trajectory that a cutover moved, so the tombstone rides
	// the WAL of a piece, not of the original partition.
	victim := pool[0].ID
	if ok, err := e.Delete(victim); err != nil || !ok {
		t.Fatalf("delete %d: ok=%v err=%v", victim, ok, err)
	}
	delete(want, victim)
	checkVisible(t, e, want, queries, "live")

	// Hard stop (no CloseIngest, no merge).
	cold1, csum := coldStart(t, snapStore, walStore, smallOpts(4))
	if csum.DupsMasked != 0 {
		t.Fatalf("clean recovery masked %d duplicates", csum.DupsMasked)
	}
	checkVisible(t, cold1, want, queries, "recovered")
	for _, q := range queries {
		if !sameResults(e.Search(q, 0.05, nil), cold1.Search(q, 0.05, nil)) {
			t.Fatalf("recovered search differs for query %d", q.ID)
		}
	}

	// Keep going after recovery, then recover again.
	mutate2 := pool[100]
	if err := cold1.Insert(mutate2); err != nil {
		t.Fatal(err)
	}
	want[mutate2.ID] = mutate2
	if err := cold1.CloseIngest(); err != nil {
		t.Fatal(err)
	}
	cold2, _ := coldStart(t, snapStore, walStore, smallOpts(4))
	checkVisible(t, cold2, want, queries, "recovered-twice")
}

// TestRebalanceCrashWindows kills a split at each durability boundary
// and recovers from what is on disk. The invariant: recovery always
// sees either the old layout or the new one in full — same visible set,
// no lost writes, duplicates masked deterministically — never a mix.
func TestRebalanceCrashWindows(t *testing.T) {
	for _, stage := range []string{"wals-open", "pieces-sealed", "tombstoned"} {
		stage := stage
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			snapStore, err := snap.NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			walStore, err := wal.NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			d := smallDataset(150, 301)
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
			pool := mutPool(20, 302)
			for _, tr := range pool {
				if err := e.Insert(tr); err != nil {
					t.Fatal(err)
				}
				want[tr.ID] = tr
			}
			for i := 0; i < 5; i++ {
				id := d.Trajs[i*7].ID
				if ok, err := e.Delete(id); err != nil || !ok {
					t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
				}
				delete(want, id)
			}
			queries := gen.Queries(d, 4, 303)
			checkVisible(t, e, want, queries, "pre-crash")

			hot := hottestLive(e)
			// On a pieces-sealed crash, recovery loads both the old full
			// snapshot and the pieces. Only the old *base* members appear
			// twice as snapshot members (and get masked); the old WAL's
			// insert suffix replays as upserts over the pieces' copies.
			baseDups := 0
			for _, tr := range hot.Trajs {
				if _, ok := e.lay.loc[tr.ID]; ok {
					baseDups++
				}
			}
			restore := SetCutoverHook(func(s string) bool { return s == stage })
			_, err = e.SplitPartition(hot.ID, 3)
			restore()
			if !errors.Is(err, ErrCutoverCrashed) {
				t.Fatalf("want simulated crash, got %v", err)
			}

			cold, csum := coldStart(t, snapStore, walStore, smallOpts(2))
			wantDups := 0
			if stage == "pieces-sealed" {
				// Lowest pid wins: every piece copy of an old base member
				// is masked at load.
				wantDups = baseDups
			}
			if csum.DupsMasked != wantDups {
				t.Fatalf("recovery masked %d duplicates, want %d", csum.DupsMasked, wantDups)
			}
			if len(cold.lay.loc) != len(want) {
				t.Fatalf("recovered %d visible trajectories, want %d (mixed layout?)",
					len(cold.lay.loc), len(want))
			}
			checkVisible(t, cold, want, queries, "post-crash")

			// The recovered engine keeps working: ingest and re-split.
			extra := mutPool(1, 304)[0]
			extra.ID = 777777
			if err := cold.Insert(extra); err != nil {
				t.Fatal(err)
			}
			want[extra.ID] = extra
			if _, err := cold.SplitPartition(hottestLive(cold).ID, 2); err != nil {
				t.Fatal(err)
			}
			checkVisible(t, cold, want, queries, "post-crash-resplit")
		})
	}
}

// TestRebalanceSealFaults: an injected snapshot-write failure while
// sealing the pieces aborts the cutover with the old layout fully
// intact; a failure while sealing a tombstone rolls forward (the new
// layout stands, the affected partition keeps snapshot and WAL, and
// recovery still reconstructs the exact visible set).
func TestRebalanceSealFaults(t *testing.T) {
	dir := t.TempDir()
	snapStore, err := snap.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	walStore, err := wal.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := smallDataset(120, 401)
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
	for _, tr := range mutPool(10, 402) {
		if err := e.Insert(tr); err != nil {
			t.Fatal(err)
		}
		want[tr.ID] = tr
	}
	queries := gen.Queries(d, 4, 403)
	nParts := len(e.Partitions())

	// Piece-seal failure: clean abort.
	snapStore.Faults = &snap.FaultPlan{Seed: 9, FailRate: 1}
	hot := hottestLive(e)
	var inj *snap.InjectedFault
	if _, err := e.SplitPartition(hot.ID, 3); !errors.As(err, &inj) {
		t.Fatalf("want injected fault, got %v", err)
	}
	snapStore.Faults = nil
	if len(e.Partitions()) != nParts || hot.Retired() {
		t.Fatal("aborted split mutated the layout")
	}
	ents, err := walStore.Scan()
	if err != nil {
		t.Fatal(err)
	}
	for _, en := range ents {
		if en.Partition >= nParts {
			t.Fatalf("aborted split left piece WAL %d behind", en.Partition)
		}
	}
	checkVisible(t, e, want, queries, "post-abort")

	// Tombstone-seal failure: injected after the pieces seal, via the
	// stage hook. The cutover rolls forward and reports the error.
	restore := SetCutoverHook(func(s string) bool {
		if s == "pieces-sealed" {
			snapStore.Faults = &snap.FaultPlan{Seed: 10, FailRate: 1}
		}
		return false
	})
	st, err := e.SplitPartition(hot.ID, 3)
	restore()
	snapStore.Faults = nil
	if !errors.As(err, &inj) {
		t.Fatalf("want injected tombstone fault, got %v", err)
	}
	if st == nil || !hot.Retired() || len(st.Created) == 0 {
		t.Fatalf("tombstone fault did not roll forward: stats=%+v", st)
	}
	// The failed partition keeps its WAL (snapshot + log still
	// reconstruct it; removing the log would orphan the full snapshot).
	ents, err = walStore.Scan()
	if err != nil {
		t.Fatal(err)
	}
	keptOld := false
	for _, en := range ents {
		if en.Partition == hot.ID {
			keptOld = true
		}
	}
	if !keptOld {
		t.Fatal("tombstone fault removed the old partition's WAL")
	}
	checkVisible(t, e, want, queries, "post-roll-forward")

	// Recovery over the mixed disk state (old full snapshot + old WAL +
	// pieces): duplicates masked, visible set exact.
	cold, _ := coldStart(t, snapStore, walStore, smallOpts(2))
	if len(cold.lay.loc) != len(want) {
		t.Fatalf("recovered %d visible trajectories, want %d", len(cold.lay.loc), len(want))
	}
	checkVisible(t, cold, want, queries, "post-roll-forward-recovery")
}

// TestRebalancePolicy: skewed ingest drives the occupancy ratio past
// the bound, the planner's split brings it at least 2× down, and the
// merge policy folds cold partitions back together. Metrics record it.
func TestRebalancePolicy(t *testing.T) {
	reg := obs.New()
	d := smallDataset(200, 501)
	opts := smallOpts(4)
	opts.Obs = reg
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
	queries := gen.Queries(d, 4, 502)

	// Hot-spot ingest: everything lands on one partition.
	hot := hottestLive(e)
	for _, tr := range skewPool(150, 20000, hot.MBRf.Center(), 503) {
		if err := e.Insert(tr); err != nil {
			t.Fatal(err)
		}
		want[tr.ID] = tr
	}
	_, _, skew0 := e.OccupancySkew()
	if skew0 <= 2 {
		t.Fatalf("skewed ingest produced skew %.2f, want > 2", skew0)
	}

	steps, converged, err := e.Rebalance(RebalancePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("planner took no action above the bound")
	}
	if !converged {
		t.Fatal("rebalance hit the step budget without converging")
	}
	_, _, skew1 := e.OccupancySkew()
	if skew1 > skew0/2 {
		t.Fatalf("rebalance reduced skew only %.2f -> %.2f, want >= 2x", skew0, skew1)
	}
	checkVisible(t, e, want, queries, "post-rebalance")

	snapReg := reg.Snapshot()
	if snapReg.Counters["engine_rebalance_total"] < int64(len(steps)) {
		t.Fatalf("engine_rebalance_total = %d, want >= %d",
			snapReg.Counters["engine_rebalance_total"], len(steps))
	}
	if g, ok := snapReg.FloatGauges["engine_occupancy_skew"]; !ok || g <= 0 {
		t.Fatalf("engine_occupancy_skew gauge = %v (present=%v)", g, ok)
	}

	// A balanced engine is a no-op.
	st, err := e.RebalanceOnce(RebalancePolicy{SkewBound: skew1 + 1, MergeFraction: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatalf("planner acted below the bound: %+v", st)
	}
}

// TestRebalanceMergePolicy: partitions emptied by deletes fall below
// the cold bar and the planner merges the two coldest neighbors.
func TestRebalanceMergePolicy(t *testing.T) {
	d := smallDataset(200, 601)
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
	// Empty two partitions, then fold so their base bytes drop.
	cold := coldestLive(e, 2)
	for _, pid := range cold {
		for _, tr := range append([]*traj.T(nil), e.parts[pid].Trajs...) {
			if ok, err := e.Delete(tr.ID); err != nil || !ok {
				t.Fatalf("delete %d: ok=%v err=%v", tr.ID, ok, err)
			}
			delete(want, tr.ID)
		}
	}
	if err := e.MergeAll(); err != nil {
		t.Fatal(err)
	}
	st, err := e.RebalanceOnce(RebalancePolicy{SkewBound: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || len(st.Retired) != 2 || len(st.Created) != 1 {
		t.Fatalf("cold merge stats: %+v", st)
	}
	got := map[int]bool{st.Retired[0]: true, st.Retired[1]: true}
	if !got[cold[0]] || !got[cold[1]] {
		t.Fatalf("merged %v, want the emptied partitions %v", st.Retired, cold)
	}
	checkVisible(t, e, want, gen.Queries(d, 3, 602), "post-cold-merge")
}

// TestRebalanceValidation covers the argument and state checks.
func TestRebalanceValidation(t *testing.T) {
	d := smallDataset(100, 701)
	e, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SplitPartition(0, 3); err == nil {
		t.Fatal("split accepted without ingest")
	}
	if _, err := e.EnableIngest(IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SplitPartition(0, 1); err == nil {
		t.Fatal("split accepted k=1")
	}
	if _, err := e.SplitPartition(-1, 2); err == nil {
		t.Fatal("split accepted negative pid")
	}
	if _, err := e.SplitPartition(len(e.parts), 2); err == nil {
		t.Fatal("split accepted out-of-range pid")
	}
	if _, err := e.MergePartitions([]int{0}); err == nil {
		t.Fatal("merge accepted a single pid")
	}
	if _, err := e.MergePartitions([]int{0, 0}); err == nil {
		t.Fatal("merge accepted duplicate pids")
	}
	st, err := e.SplitPartition(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SplitPartition(0, 2); err == nil {
		t.Fatal("split accepted a retired pid")
	}
	if _, err := e.MergePartitions([]int{0, st.Created[0]}); err == nil {
		t.Fatal("merge accepted a retired pid")
	}

	// A merge fold in flight makes the partition busy for rebalancing.
	pool := mutPool(5, 702)
	for _, tr := range pool {
		if err := e.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	pid := e.lay.loc[pool[0].ID]
	var busyErr error
	restore := SetFoldHook(func(s *Store) {
		if s == e.parts[pid].Store {
			_, busyErr = e.SplitPartition(pid, 2)
		}
	})
	did, err := e.MergePartition(pid)
	restore()
	if err != nil || !did {
		t.Fatalf("merge: did=%v err=%v", did, err)
	}
	if !errors.Is(busyErr, ErrRebalanceBusy) {
		t.Fatalf("split during merge fold: %v, want ErrRebalanceBusy", busyErr)
	}
	// After the fold completes, the split goes through.
	if _, err := e.SplitPartition(pid, 2); err != nil {
		t.Fatalf("split after merge: %v", err)
	}
}

// TestRebalanceNeverSplitsOneMember: a partition deleted down to one long
// member and merged carries the whole skew, but a split of it would cut
// one identical piece, and the next step would plan it again until the
// budget ran out. The planner leaves it alone and converges.
func TestRebalanceNeverSplitsOneMember(t *testing.T) {
	d := smallDataset(200, 801)
	e, err := NewEngine(d, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnableIngest(IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	p := hottestLive(e)
	keep := p.Trajs[0]
	// As many points as the whole dataset, on keep's endpoints: its
	// partition will hold about half the engine's bytes.
	var pts []geom.Point
	for len(pts) < d.Stats().TotalPoints {
		pts = append(pts, keep.Points...)
	}
	long := &traj.T{ID: keep.ID, Points: pts}
	if err := e.Insert(long); err != nil {
		t.Fatal(err)
	}
	for _, tr := range p.Trajs[1:] {
		if ok, err := e.Delete(tr.ID); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", tr.ID, ok, err)
		}
	}
	if did, err := e.MergePartition(p.ID); err != nil || !did {
		t.Fatalf("MergePartition: did=%v err=%v", did, err)
	}
	if len(p.Trajs) != 1 {
		t.Fatalf("partition %d holds %d members after the merge, want 1", p.ID, len(p.Trajs))
	}
	if _, _, skew := e.OccupancySkew(); skew <= 2 {
		t.Fatalf("skew %.2f, want the lone member above the default bound", skew)
	}
	steps, converged, err := e.Rebalance(RebalancePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		if slices.Contains(st.Retired, p.ID) {
			t.Fatalf("a step re-cut the one-member partition %d: %+v", p.ID, st)
		}
	}
	if !converged {
		t.Fatalf("rebalance did not converge in %d steps", len(steps))
	}
	if got := e.Search(long, 0, nil); len(got) != 1 || got[0].Traj.ID != long.ID || !slices.Equal(got[0].Traj.Points, long.Points) {
		t.Fatalf("the long member searches as %v", got)
	}
}
