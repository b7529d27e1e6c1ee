package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"

	"dita/internal/gen"
	"dita/internal/geom"
	"dita/internal/obs"
	"dita/internal/snap"
	"dita/internal/traj"
	"dita/internal/wal"
)

// mutPool returns fresh trajectories whose ids cannot collide with a
// BeijingLike base dataset (gen ids are small and dense).
func mutPool(n int, seed int64) []*traj.T {
	d := gen.Generate(gen.BeijingLike(n, seed))
	for i, t := range d.Trajs {
		t.ID = 10000 + i
	}
	return d.Trajs
}

// visibleDataset materializes the model's visible set as a dataset, in
// ascending id order, for the brute-force oracles.
func visibleDataset(want map[int]*traj.T) *traj.Dataset {
	ids := make([]int, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	trajs := make([]*traj.T, len(ids))
	for i, id := range ids {
		trajs[i] = want[id]
	}
	return traj.NewDataset("visible", trajs)
}

// checkVisible compares the engine's search, kNN and join answers against
// brute force over the model's visible set — the strongest oracle the
// repo has (a rebuilt engine is itself tested against brute force).
func checkVisible(t *testing.T, e *Engine, want map[int]*traj.T, queries []*traj.T, label string) {
	t.Helper()
	vis := visibleDataset(want)
	m := e.Measure()
	checkVisibleJoins(t, e, vis, label)
	for _, q := range queries {
		bs := bruteSearch(vis, m, q, 0.05)
		got := e.Search(q, 0.05, nil)
		ids := map[int]bool{}
		for _, r := range got {
			if ids[r.Traj.ID] {
				t.Fatalf("%s: q=%d: duplicate search result %d", label, q.ID, r.Traj.ID)
			}
			ids[r.Traj.ID] = true
		}
		if len(ids) != len(bs) {
			t.Fatalf("%s: q=%d: search got %d results, brute force %d", label, q.ID, len(ids), len(bs))
		}
		for id := range bs {
			if !ids[id] {
				t.Fatalf("%s: q=%d: search missing %d", label, q.ID, id)
			}
		}
		k := 7
		if k > vis.Len() {
			k = vis.Len()
		}
		wantK := bruteKNN(vis, m, q, k)
		gotK := idsOf(e.SearchKNN(q, k))
		if len(gotK) != len(wantK) {
			t.Fatalf("%s: q=%d: knn got %d results, want %d", label, q.ID, len(gotK), len(wantK))
		}
		for i := range wantK {
			if gotK[i] != wantK[i] {
				t.Fatalf("%s: q=%d: knn[%d] = %d, want %d (got %v want %v)",
					label, q.ID, i, gotK[i], wantK[i], gotK, wantK)
			}
		}
	}
}

// checkVisibleJoins joins the engine with itself and, in both orientations,
// with a static engine holding clones of its highest-id visible members
// (ingested ones have the highest ids, so an unmerged overlay is hit from
// both sides), and compares each pair set against brute force.
func checkVisibleJoins(t *testing.T, e *Engine, vis *traj.Dataset, label string) {
	t.Helper()
	const tau = 0.05
	m, jo := e.Measure(), DefaultJoinOptions()
	var clones []*traj.T
	for i := vis.Len() - 1; i >= 0 && len(clones) < 10; i-- {
		c := vis.Trajs[i].Clone()
		c.ID += 1 << 20
		clones = append(clones, c)
	}
	static := traj.NewDataset("static", clones)
	se, err := NewEngine(static, e.opts)
	if err != nil {
		t.Fatal(err)
	}
	// The self-join oracle is bruteJoin(vis, vis) minus the pairs an
	// endpoint-anchored measure cannot accept (distance >= dist of the first
	// points): all n² exact DPs at every round would be most of the suite's time.
	self := map[[2]int]bool{}
	for _, a := range vis.Trajs {
		for _, b := range vis.Trajs {
			if m.AlignsEndpoints() && a.First().Dist(b.First()) > tau {
				continue
			}
			if m.Distance(a.Points, b.Points) <= tau {
				self[[2]int{a.ID, b.ID}] = true
			}
		}
	}
	selfPairs := e.Join(e, tau, jo, nil)
	checkJoin(t, selfPairs, self, label+": self-join")
	checkSelfJoinExact(t, selfPairs, m, label+": self-join")
	checkJoin(t, e.Join(se, tau, jo, nil), bruteJoin(vis, static, m, tau), label+": join with static")
	checkJoin(t, se.Join(e, tau, jo, nil), bruteJoin(static, vis, m, tau), label+": static join with")
}

// TestIngestDifferential is the tentpole's core contract: an engine
// mutated by an interleaved stream of inserts, upserts, deletes, and
// merges answers every query exactly like a brute-force scan of the
// currently visible set — and, at the end, exactly like an engine
// rebuilt from scratch over that set.
func TestIngestDifferential(t *testing.T) {
	d := smallDataset(300, 31)
	opts := smallOpts(4)
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnableIngest(IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	if !e.IngestEnabled() {
		t.Fatal("ingest not enabled")
	}
	want := map[int]*traj.T{}
	for _, tr := range d.Trajs {
		want[tr.ID] = tr
	}
	pool := mutPool(220, 32)
	queries := gen.Queries(d, 6, 34)
	rng := rand.New(rand.NewSource(33))

	randomVisible := func() int {
		ids := make([]int, 0, len(want))
		for id := range want {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		return ids[rng.Intn(len(ids))]
	}

	next := 0
	for round := 0; round < 4; round++ {
		for i := 0; i < 30; i++ {
			tr := pool[next]
			next++
			if err := e.Insert(tr); err != nil {
				t.Fatal(err)
			}
			want[tr.ID] = tr
		}
		for i := 0; i < 8; i++ {
			id := randomVisible()
			up := &traj.T{ID: id, Points: pool[next].Points}
			next++
			if err := e.Insert(up); err != nil {
				t.Fatal(err)
			}
			want[id] = up
		}
		for i := 0; i < 8; i++ {
			id := randomVisible()
			ok, err := e.Delete(id)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("delete of visible id %d reported absent", id)
			}
			delete(want, id)
		}
		checkVisible(t, e, want, queries, "round")
		if round%2 == 1 {
			if err := e.MergeAll(); err != nil {
				t.Fatal(err)
			}
			for _, p := range e.parts {
				if p.frozen != nil || len(p.tomb) != 0 || len(p.delta.live) != 0 {
					t.Fatalf("partition %d still has overlay after MergeAll", p.ID)
				}
			}
			checkVisible(t, e, want, queries, "post-merge")
		}
	}

	// Deleting an unknown id is a silent no-op that appends nothing.
	seq := e.LastSeq()
	if ok, err := e.Delete(999999); err != nil || ok {
		t.Fatalf("delete of unknown id: ok=%v err=%v", ok, err)
	}
	if e.LastSeq() != seq {
		t.Fatal("no-op delete advanced the sequence")
	}

	// Final differential: a fresh engine over exactly the visible set
	// must agree answer-for-answer, distances included.
	vis := visibleDataset(want)
	oracle, err := NewEngine(vis, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if !sameResults(oracle.Search(q, 0.05, nil), e.Search(q, 0.05, nil)) {
			t.Fatalf("final search differs from rebuilt engine for query %d", q.ID)
		}
		// kNN distances may differ by an ulp between the two engines: a
		// candidate is resolved by the exact kernel or the threshold
		// kernel depending on the live τ when it is reached, and the two
		// DPs are mathematically — not bitwise — equal. IDs and order
		// must still agree exactly.
		wk, gk := oracle.SearchKNN(q, 7), e.SearchKNN(q, 7)
		if len(wk) != len(gk) {
			t.Fatalf("final knn count differs for query %d: %d vs %d", q.ID, len(wk), len(gk))
		}
		for i := range wk {
			rel := wk[i].Distance - gk[i].Distance
			if rel < 0 {
				rel = -rel
			}
			if wk[i].Traj.ID != gk[i].Traj.ID || rel > 1e-12*(1+wk[i].Distance) {
				t.Fatalf("final knn[%d] differs for query %d: oracle=(%d,%g) live=(%d,%g)",
					i, q.ID, wk[i].Traj.ID, wk[i].Distance, gk[i].Traj.ID, gk[i].Distance)
			}
		}
	}

	// Join: the mutated engine joined against a static side must produce
	// the brute-force pair set over (visible, static).
	bcfg := gen.BeijingLike(80, 35)
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
	checkJoin(t, pairs, bruteJoin(vis, b, e.Measure(), 0.05), "ingest-join")

	// kNN join from the mutated side: one probe per visible trajectory.
	kj, err := e.KNNJoinContext(context.Background(), eb, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(kj) != len(want) {
		t.Fatalf("knn join answered %d probes, visible set has %d", len(kj), len(want))
	}
	for id, res := range kj {
		wk := bruteKNN(b, e.Measure(), want[id], 3)
		gk := idsOf(res)
		for i := range wk {
			if gk[i] != wk[i] {
				t.Fatalf("knn join probe %d: got %v want %v", id, gk, wk)
			}
		}
	}
}

// TestIngestMergeWindow exercises the frozen-overlay state
// deterministically: while a merge's off-lock fold is in flight, queries
// must see (base − masks) ∪ frozen ∪ delta, and mutations landing in the
// window (upserts over frozen members, deletes of base and frozen
// members, fresh inserts) must all be visible immediately and survive the
// merge's install.
func TestIngestMergeWindow(t *testing.T) {
	d := smallDataset(200, 41)
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
	pool := mutPool(80, 42)
	queries := gen.Queries(d, 4, 43)

	// Stage mutations so partition pid has a rich overlay to rotate.
	for i := 0; i < 30; i++ {
		if err := e.Insert(pool[i]); err != nil {
			t.Fatal(err)
		}
		want[pool[i].ID] = pool[i]
	}
	pid := e.ing.loc[pool[0].ID]
	p := e.parts[pid]
	frozenID := pool[0].ID // will be in the frozen delta after rotation
	var baseID int         // a base member of pid, untouched so far
	for _, tr := range p.Trajs {
		if _, inWant := want[tr.ID]; inWant && tr.ID < 10000 {
			baseID = tr.ID
			break
		}
	}

	hookRan := false
	restore := SetFoldHook(func(s *Store) {
		if s != p.Store {
			return
		}
		hookRan = true
		if p.frozen == nil {
			t.Error("hook ran without a frozen delta")
			return
		}
		// Queries during the window.
		checkVisible(t, e, want, queries, "window-pre")
		// Upsert over a frozen member: the frozen copy must be masked.
		up := &traj.T{ID: frozenID, Points: pool[60].Points}
		if err := e.Insert(up); err != nil {
			t.Error(err)
			return
		}
		want[frozenID] = up
		// Delete a base member of the merging partition.
		if ok, err := e.Delete(baseID); err != nil || !ok {
			t.Errorf("window delete of %d: ok=%v err=%v", baseID, ok, err)
			return
		}
		delete(want, baseID)
		// Fresh insert racing the merge.
		if err := e.Insert(pool[61]); err != nil {
			t.Error(err)
			return
		}
		want[pool[61].ID] = pool[61]
		checkVisible(t, e, want, queries, "window-post")
	})
	defer restore()

	did, err := e.MergePartition(pid)
	restore() // one shot: MergeAll below must not re-run it
	if err != nil {
		t.Fatal(err)
	}
	if !did || !hookRan {
		t.Fatalf("merge did=%v hookRan=%v", did, hookRan)
	}
	if p.frozen != nil || p.frozenTomb != nil {
		t.Fatal("frozen overlay not cleared after merge")
	}
	checkVisible(t, e, want, queries, "after-merge")
	// The window's mutations are post-rotation overlay; fold them too.
	if err := e.MergeAll(); err != nil {
		t.Fatal(err)
	}
	checkVisible(t, e, want, queries, "after-merge-all")
}

// sealAll persists every partition's current base so a cold start has a
// complete snapshot set.
func sealAll(t *testing.T, e *Engine, st *snap.Store) {
	t.Helper()
	for _, p := range e.Partitions() {
		if _, err := st.Save(e.ExportSnapshot(e.dataset.Name, p)); err != nil {
			t.Fatal(err)
		}
	}
}

// coldStart reassembles an engine from the directory's snapshots and
// replays the WAL suffixes.
func coldStart(t *testing.T, snapStore *snap.Store, walStore *wal.Store, opts Options) (*Engine, *ReplaySummary) {
	t.Helper()
	ents, err := snapStore.Scan()
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*snap.Snapshot
	for _, en := range ents {
		s, err := snap.LoadFile(en.Path)
		if err != nil {
			t.Fatalf("load %s: %v", en.Path, err)
		}
		snaps = append(snaps, s)
	}
	e, err := NewEngineFromSnapshots(snaps, opts)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := e.EnableIngest(IngestConfig{WAL: walStore, Snap: snapStore, Replay: true})
	if err != nil {
		t.Fatal(err)
	}
	return e, sum
}

// TestIngestWALRecovery is the crash-recovery contract: after a hard stop
// (no shutdown, no final merge), the newest sealed snapshots plus each
// partition's WAL suffix past its watermark reconstruct exactly the acked
// state — and the replayed record count is exactly the acked mutations
// not yet folded into a snapshot.
func TestIngestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	snapStore, err := snap.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	walStore, err := wal.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := smallDataset(250, 51)
	opts := smallOpts(4)
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	sealAll(t, e, snapStore)
	sum, err := e.EnableIngest(IngestConfig{WAL: walStore, Snap: snapStore})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 0 || sum.TruncatedBytes != 0 {
		t.Fatalf("fresh enable replayed something: %+v", sum)
	}

	want := map[int]*traj.T{}
	for _, tr := range d.Trajs {
		want[tr.ID] = tr
	}
	pool := mutPool(120, 52)
	queries := gen.Queries(d, 5, 53)
	rng := rand.New(rand.NewSource(54))

	mutate := func(n int) int {
		acked := 0
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0, 1:
				tr := pool[0]
				pool = pool[1:]
				if err := e.Insert(tr); err != nil {
					t.Fatal(err)
				}
				want[tr.ID] = tr
			default:
				ids := make([]int, 0, len(want))
				for id := range want {
					ids = append(ids, id)
				}
				sort.Ints(ids)
				id := ids[rng.Intn(len(ids))]
				if ok, err := e.Delete(id); err != nil || !ok {
					t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
				}
				delete(want, id)
			}
			acked++
		}
		return acked
	}

	// Phase 1: mutations, then fold everything into sealed snapshots
	// (every partition's WAL truncates through its watermark).
	mutate(60)
	if err := e.MergeAll(); err != nil {
		t.Fatal(err)
	}
	// Phase 2: the suffix a crash would lose without the WAL.
	suffix := mutate(40)
	liveSeq := e.LastSeq()
	checkVisible(t, e, want, queries, "live")

	// Hard stop: no CloseIngest, no merge — exactly what a SIGKILL
	// leaves on disk (appends are fsync'd per mutation).
	cold, csum := coldStart(t, snapStore, walStore, smallOpts(4))
	if csum.Records != suffix {
		t.Fatalf("replayed %d records, want the %d-mutation suffix", csum.Records, suffix)
	}
	if csum.MaxSeq != liveSeq || cold.LastSeq() != liveSeq {
		t.Fatalf("sequence drift: replay max %d, cold last %d, live last %d",
			csum.MaxSeq, cold.LastSeq(), liveSeq)
	}
	if csum.DupsMasked != 0 {
		t.Fatalf("clean recovery masked %d duplicates", csum.DupsMasked)
	}
	checkVisible(t, cold, want, queries, "recovered")
	// Distances too: the recovered engine must answer byte-identically
	// to the live engine it replaced.
	for _, q := range queries {
		if !sameResults(e.Search(q, 0.05, nil), cold.Search(q, 0.05, nil)) {
			t.Fatalf("recovered search differs for query %d", q.ID)
		}
	}

	// The recovered engine keeps ingesting: sequences continue past the
	// replayed ones, and a second recovery sees the new writes.
	tr := pool[0]
	if err := cold.Insert(tr); err != nil {
		t.Fatal(err)
	}
	want[tr.ID] = tr
	if cold.LastSeq() <= liveSeq {
		t.Fatal("post-recovery sequence did not advance")
	}
	if err := cold.CloseIngest(); err != nil {
		t.Fatal(err)
	}
	cold2, _ := coldStart(t, snapStore, walStore, smallOpts(4))
	checkVisible(t, cold2, want, queries, "recovered-twice")
}

// TestIngestReplayExtendsBounds: a replayed insert must grow its
// partition's endpoint MBRs exactly as the live Insert did. With the boxes
// left at their snapshot extent, a recovered trajectory lying outside them
// was pruned by every search with τ below the gap, and its partition's kNN
// visit bound was too high, so a best-first scan could stop before it.
func TestIngestReplayExtendsBounds(t *testing.T) {
	dir := t.TempDir()
	snapStore, err := snap.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	walStore, err := wal.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := smallDataset(250, 55)
	e, err := NewEngine(d, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	sealAll(t, e, snapStore)
	if _, err := e.EnableIngest(IngestConfig{WAL: walStore, Snap: snapStore}); err != nil {
		t.Fatal(err)
	}
	// Both endpoints far outside every partition's boxes.
	all := geom.EmptyMBR()
	for _, p := range e.Partitions() {
		all = all.Union(p.MBRf).Union(p.MBRl)
	}
	span := math.Max(all.Max.X-all.Min.X, all.Max.Y-all.Min.Y)
	far := &traj.T{ID: 99999, Points: []geom.Point{
		{X: all.Max.X + span, Y: all.Max.Y + span},
		{X: all.Max.X + 1.5*span, Y: all.Max.Y + span},
		{X: all.Max.X + 2*span, Y: all.Max.Y + 2*span},
	}}
	if err := e.Insert(far); err != nil {
		t.Fatal(err)
	}
	check := func(label string, e *Engine) {
		t.Helper()
		got := e.Search(far, 0, nil)
		if len(got) != 1 || got[0].Traj.ID != far.ID || got[0].Distance != 0 {
			t.Fatalf("%s: Search(τ=0) on the member's own points = %v, want it at distance 0", label, got)
		}
		nn := e.SearchKNN(far, 1)
		if len(nn) != 1 || nn[0].Traj.ID != far.ID || nn[0].Distance != 0 {
			t.Fatalf("%s: SearchKNN(k=1) on the member's own points = %v, want it at distance 0", label, nn)
		}
	}
	check("live", e)
	// Hard stop, then recovery from the snapshots plus the one-record WAL.
	cold, csum := coldStart(t, snapStore, walStore, smallOpts(4))
	if csum.Records != 1 {
		t.Fatalf("replayed %d records, want 1", csum.Records)
	}
	check("recovered", cold)
}

// TestIngestReplayReinsertAcrossPartitions: logs replay in pid order, not
// seq order, and an id that was deleted and inserted again is routed
// anew. When the second home has the lower pid its log replays first, and
// the first home's older insert+delete must neither hide the newer copy
// nor unmap it — whether that copy is still in the overlay or already
// folded into a base whose watermark is past the older records.
func TestIngestReplayReinsertAcrossPartitions(t *testing.T) {
	for _, merged := range []bool{false, true} {
		merged := merged
		t.Run(fmt.Sprintf("merged=%v", merged), func(t *testing.T) {
			dir := t.TempDir()
			snapStore, err := snap.NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			walStore, err := wal.NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			d := smallDataset(250, 57)
			e, err := NewEngine(d, smallOpts(4))
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
			// A copy of a member routes to a partition whose boxes hold
			// both its endpoints: find two members that route apart.
			const id = 424242
			var hi, lo *traj.T
			for _, a := range d.Trajs {
				pa := Route(len(e.bounds), func(pid int) PartBounds { return e.bounds[pid] }, a)
				for _, b := range d.Trajs {
					if Route(len(e.bounds), func(pid int) PartBounds { return e.bounds[pid] }, b) < pa {
						hi, lo = a, b
						break
					}
				}
				if hi != nil {
					break
				}
			}
			if hi == nil {
				t.Fatal("every member routes to the same partition")
			}
			if err := e.Insert(&traj.T{ID: id, Points: hi.Points}); err != nil {
				t.Fatal(err)
			}
			first := e.ing.loc[id]
			if ok, err := e.Delete(id); err != nil || !ok {
				t.Fatalf("delete: ok=%v err=%v", ok, err)
			}
			again := &traj.T{ID: id, Points: lo.Points}
			if err := e.Insert(again); err != nil {
				t.Fatal(err)
			}
			want[id] = again
			second := e.ing.loc[id]
			if second >= first {
				t.Fatalf("re-insert landed in partition %d, first home was %d", second, first)
			}
			if merged {
				if ok, err := e.MergePartition(second); err != nil || !ok {
					t.Fatalf("merge: ok=%v err=%v", ok, err)
				}
			}
			queries := append(gen.Queries(d, 3, 58), again)
			checkVisible(t, e, want, queries, "live")

			cold, _ := coldStart(t, snapStore, walStore, smallOpts(4))
			checkVisible(t, cold, want, queries, "recovered")
			if le, ok := cold.ing.loc[id]; !ok || le != second {
				t.Fatalf("recovered location of %d = %+v (found=%v), want partition %d", id, le, ok, second)
			}
			if ok, err := cold.Delete(id); err != nil || !ok {
				t.Fatalf("delete after recovery: ok=%v err=%v", ok, err)
			}
			delete(want, id)
			checkVisible(t, cold, want, queries, "recovered, deleted")
		})
	}
}

// TestIngestSeqResumesPastWatermark: after a merge truncates every log
// through its snapshot watermark, a cold start finds empty WALs — the
// sequence counter must be seeded from the watermarks, not just the
// logs' last records, or fresh mutations would reuse burned numbers and
// the NEXT restart's watermark skip would silently drop them (acked
// writes lost).
func TestIngestSeqResumesPastWatermark(t *testing.T) {
	dir := t.TempDir()
	snapStore, err := snap.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	walStore, err := wal.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := smallDataset(200, 91)
	e, err := NewEngine(d, smallOpts(4))
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
	// One delete per partition, so after MergeAll every partition's
	// snapshot watermark is positive and every log is truncated empty.
	for _, p := range e.Partitions() {
		id := p.Trajs[0].ID
		if ok, err := e.Delete(id); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
		}
		delete(want, id)
	}
	if err := e.MergeAll(); err != nil {
		t.Fatal(err)
	}
	liveSeq := e.LastSeq()
	if liveSeq == 0 {
		t.Fatal("no sequence numbers assigned")
	}
	if err := e.CloseIngest(); err != nil {
		t.Fatal(err)
	}

	// Cold start over (merged snapshots, empty logs): nothing to replay,
	// but the counter must resume past every snapshot's watermark.
	cold, sum := coldStart(t, snapStore, walStore, smallOpts(4))
	if sum.Records != 0 {
		t.Fatalf("replayed %d records from truncated logs", sum.Records)
	}
	if cold.LastSeq() < liveSeq {
		t.Fatalf("sequence counter restarted at %d, below the snapshot watermarks (max %d)",
			cold.LastSeq(), liveSeq)
	}

	// The write that the bug would lose: its seq must exceed the target
	// partition's watermark, so the next replay applies it.
	tr := mutPool(1, 92)[0]
	if err := cold.Insert(tr); err != nil {
		t.Fatal(err)
	}
	want[tr.ID] = tr
	if cold.LastSeq() <= liveSeq {
		t.Fatal("post-recovery insert did not advance past the watermarks")
	}
	if err := cold.CloseIngest(); err != nil {
		t.Fatal(err)
	}
	cold2, sum2 := coldStart(t, snapStore, walStore, smallOpts(4))
	if sum2.Records != 1 {
		t.Fatalf("second recovery replayed %d records, want the 1 post-merge insert", sum2.Records)
	}
	checkVisible(t, cold2, want, gen.Queries(d, 4, 93), "recovered-past-watermark")
}

// TestIngestTornTail: a torn final record (partial write at the moment of
// a crash) is truncated on recovery — the log's valid prefix replays, the
// torn mutation is lost (it was never acked durable), and nothing else is
// disturbed.
func TestIngestTornTail(t *testing.T) {
	dir := t.TempDir()
	snapStore, err := snap.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	walStore, err := wal.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := smallDataset(150, 61)
	opts := smallOpts(2)
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	sealAll(t, e, snapStore)
	if _, err := e.EnableIngest(IngestConfig{WAL: walStore, Snap: snapStore}); err != nil {
		t.Fatal(err)
	}
	pool := mutPool(20, 62)
	for _, tr := range pool {
		if err := e.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the last record of the last-written partition's log: chop a
	// few bytes off the file, as a crash mid-write would.
	lastID := pool[len(pool)-1].ID
	victim := e.ing.loc[lastID]
	if err := e.CloseIngest(); err != nil {
		t.Fatal(err)
	}
	path := walStore.Path(d.Name, victim)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	cold, sum := coldStart(t, snapStore, walStore, smallOpts(2))
	if sum.TruncatedBytes <= 0 {
		t.Fatalf("torn tail not truncated: %+v", sum)
	}
	if sum.Records != len(pool)-1 {
		t.Fatalf("replayed %d records, want %d (all but the torn one)", sum.Records, len(pool)-1)
	}
	if _, ok := cold.ing.loc[lastID]; ok {
		t.Fatal("torn mutation resurrected")
	}
	for _, tr := range pool[:len(pool)-1] {
		if _, ok := cold.ing.loc[tr.ID]; !ok {
			t.Fatalf("durable insert %d lost", tr.ID)
		}
	}
	// The truncation repaired the file in place: a second open is clean.
	if fi2, err := os.Stat(path); err != nil || fi2.Size() >= fi.Size()-3 {
		t.Fatalf("log not repaired in place: %v size=%d", err, fi2.Size())
	}
	if err := cold.CloseIngest(); err != nil {
		t.Fatal(err)
	}
	_, sum2 := coldStart(t, snapStore, walStore, smallOpts(2))
	if sum2.TruncatedBytes != 0 {
		t.Fatalf("second recovery still truncating: %+v", sum2)
	}
}

// TestIngestAppendFaults: an injected append failure (clean I/O error or
// mid-write crash) must leave the engine byte-for-byte unchanged — the
// mutation was never acked, so it must not be visible, and the sequence
// must not advance. After the fault clears, the same mutation succeeds.
func TestIngestAppendFaults(t *testing.T) {
	dir := t.TempDir()
	snapStore, err := snap.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	walStore, err := wal.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	plan := &snap.FaultPlan{Seed: 7, FailRate: 1}
	walStore.Faults = plan

	d := smallDataset(100, 71)
	e, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	sealAll(t, e, snapStore)
	if _, err := e.EnableIngest(IngestConfig{WAL: walStore, Snap: snapStore}); err != nil {
		t.Fatal(err)
	}
	pool := mutPool(3, 72)
	tr := pool[0]

	var inj *snap.InjectedFault
	if err := e.Insert(tr); !errors.As(err, &inj) || inj.Kind != "fail" {
		t.Fatalf("want injected fail, got %v", err)
	}
	if e.LastSeq() != 0 || e.DeltaBytes() != 0 {
		t.Fatalf("failed append mutated state: seq=%d delta=%d", e.LastSeq(), e.DeltaBytes())
	}
	if _, ok := e.ing.loc[tr.ID]; ok {
		t.Fatal("unacked insert visible")
	}

	plan.FailRate, plan.CrashRate = 0, 1
	if err := e.Insert(tr); !errors.As(err, &inj) || inj.Kind != "crash" {
		t.Fatalf("want injected crash, got %v", err)
	}
	if e.LastSeq() != 0 || e.DeltaBytes() != 0 {
		t.Fatalf("crashed append mutated state: seq=%d delta=%d", e.LastSeq(), e.DeltaBytes())
	}

	// Fault cleared: the retry succeeds, overwriting the torn bytes the
	// injected crash left at the append offset.
	plan.CrashRate = 0
	if err := e.Insert(tr); err != nil {
		t.Fatal(err)
	}
	if e.LastSeq() != 1 {
		t.Fatalf("seq = %d after first durable append", e.LastSeq())
	}
	if err := e.CloseIngest(); err != nil {
		t.Fatal(err)
	}
	walStore.Faults = nil
	cold, sum := coldStart(t, snapStore, walStore, smallOpts(2))
	if sum.Records != 1 {
		t.Fatalf("replayed %d records, want 1", sum.Records)
	}
	if _, ok := cold.ing.loc[tr.ID]; !ok {
		t.Fatal("durable insert lost after faults")
	}
}

// TestIngestBackpressure: MaxDeltaBytes bounds a partition's unmerged
// backlog with a typed error, and a merge drains it.
func TestIngestBackpressure(t *testing.T) {
	d := smallDataset(100, 81)
	e, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnableIngest(IngestConfig{MaxDeltaBytes: 1}); err != nil {
		t.Fatal(err)
	}
	pool := mutPool(2, 82)
	if err := e.Insert(pool[0]); err != nil {
		t.Fatal(err)
	}
	// Upsert the same id: sticky routing targets the same partition,
	// whose backlog is now at the bound.
	up := &traj.T{ID: pool[0].ID, Points: pool[1].Points}
	if err := e.Insert(up); !errors.Is(err, ErrDeltaBacklog) {
		t.Fatalf("want ErrDeltaBacklog, got %v", err)
	}
	if err := e.MergeAll(); err != nil {
		t.Fatal(err)
	}
	if e.DeltaBytes() != 0 {
		t.Fatalf("backlog after MergeAll: %d", e.DeltaBytes())
	}
	if err := e.Insert(up); err != nil {
		t.Fatalf("insert after drain: %v", err)
	}
}

// TestIngestAutoMerge: with AutoMerge on and a tiny threshold, inserts
// trigger synchronous merges that seal snapshots and truncate logs.
func TestIngestAutoMerge(t *testing.T) {
	dir := t.TempDir()
	snapStore, err := snap.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	walStore, err := wal.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := smallDataset(120, 91)
	e, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	sealAll(t, e, snapStore)
	if _, err := e.EnableIngest(IngestConfig{WAL: walStore, Snap: snapStore, MergeBytes: 1, AutoMerge: true}); err != nil {
		t.Fatal(err)
	}
	pool := mutPool(10, 92)
	for _, tr := range pool {
		if err := e.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	if e.DeltaBytes() != 0 {
		t.Fatalf("auto-merge left %d overlay bytes", e.DeltaBytes())
	}
	merged := false
	for _, p := range e.parts {
		if p.watermark > 0 {
			merged = true
		}
	}
	if !merged {
		t.Fatal("no partition carries a watermark after auto-merges")
	}
	// Every log was truncated through its watermark; a cold start
	// replays nothing and still sees every insert.
	if err := e.CloseIngest(); err != nil {
		t.Fatal(err)
	}
	cold, sum := coldStart(t, snapStore, walStore, smallOpts(2))
	if sum.Records != 0 {
		t.Fatalf("replayed %d records after full auto-merge, want 0", sum.Records)
	}
	for _, tr := range pool {
		if _, ok := cold.ing.loc[tr.ID]; !ok {
			t.Fatalf("insert %d lost across auto-merge cold start", tr.ID)
		}
	}
}

// TestIngestDisabled: mutation entry points demand EnableIngest, and
// enabling twice is rejected.
func TestIngestDisabled(t *testing.T) {
	d := smallDataset(50, 95)
	e, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(mutPool(1, 96)[0]); err == nil {
		t.Fatal("insert accepted without ingest")
	}
	if _, err := e.Delete(1); err == nil {
		t.Fatal("delete accepted without ingest")
	}
	if _, err := e.EnableIngest(IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnableIngest(IngestConfig{}); err == nil {
		t.Fatal("double enable accepted")
	}
}

// TestIngestMergesItself: a partition merges itself once its delta reaches
// MergeBytes, AutoMerge or not — the one merge policy of both hosts. (An
// engine enabled without AutoMerge, as dita-serve -dev enables it, never
// merged and never bounded its backlog.)
func TestIngestMergesItself(t *testing.T) {
	d := smallDataset(120, 97)
	opts := smallOpts(2)
	opts.Obs = obs.New()
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnableIngest(IngestConfig{MergeBytes: 4 << 10}); err != nil {
		t.Fatal(err)
	}
	want := map[int]*traj.T{}
	for _, tr := range d.Trajs {
		want[tr.ID] = tr
	}
	inserted := 0
	for _, tr := range mutPool(60, 98) {
		if err := e.Insert(tr); err != nil {
			t.Fatal(err)
		}
		want[tr.ID] = tr
		inserted += tr.Bytes()
	}
	merges := opts.Obs.Counter("engine_merges_total").Value()
	if merges == 0 || e.DeltaBytes() >= inserted {
		t.Fatalf("%d merges, %d overlay bytes after inserting %d: no partition merged itself", merges, e.DeltaBytes(), inserted)
	}
	for _, p := range e.parts {
		if p.delta.bytes >= 4<<10 {
			t.Fatalf("partition %d holds a %d-byte delta past the 4 KiB threshold", p.ID, p.delta.bytes)
		}
	}
	checkVisible(t, e, want, gen.Queries(d, 3, 99), "self-merged")
}

// TestIngestSealFailureKeepsWrite: an Insert whose delta crosses MergeBytes
// merges the partition, and a merge whose seal fails is counted — never
// the error of a write that is already durable and visible. The log keeps
// the record (it is truncated only after a successful seal), so a cold
// restart replays it.
func TestIngestSealFailureKeepsWrite(t *testing.T) {
	dir := t.TempDir()
	snapStore, err := snap.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	walStore, err := wal.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := smallDataset(100, 111)
	opts := smallOpts(2)
	opts.Obs = obs.New()
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	sealAll(t, e, snapStore)
	if _, err := e.EnableIngest(IngestConfig{WAL: walStore, Snap: snapStore, MergeBytes: 1}); err != nil {
		t.Fatal(err)
	}
	snapStore.Faults = &snap.FaultPlan{FailRate: 1}
	tr := mutPool(1, 112)[0]
	if err := e.Insert(tr); err != nil {
		t.Fatalf("insert whose merge could not seal: %v", err)
	}
	if n := opts.Obs.Counter("engine_merges_total").Value(); n != 1 {
		t.Fatalf("%d merges, want the one the insert made due", n)
	}
	if n := opts.Obs.Counter("engine_seal_errors_total").Value(); n != 1 {
		t.Fatalf("%d seal errors counted, want 1", n)
	}
	if got := e.Search(tr, 0, nil); len(got) != 1 || got[0].Traj.ID != tr.ID {
		t.Fatalf("the insert searches as %v", got)
	}
	pid := e.ing.loc[tr.ID]
	if e.parts[pid].LastSeq() != 1 {
		t.Fatalf("partition %d last seq %d, want 1", pid, e.parts[pid].LastSeq())
	}
	if err := e.CloseIngest(); err != nil {
		t.Fatal(err)
	}
	snapStore.Faults = nil
	cold, sum := coldStart(t, snapStore, walStore, smallOpts(2))
	if sum.Records != 1 {
		t.Fatalf("replayed %d records, want the insert's", sum.Records)
	}
	if got := cold.Search(tr, 0, nil); len(got) != 1 || got[0].Traj.ID != tr.ID {
		t.Fatalf("after a cold restart the insert searches as %v", got)
	}
}

// Routing a new member reads the bounds through a closure and allocates
// nothing.
func TestRouteAllocatesNothing(t *testing.T) {
	e, err := NewEngine(smallDataset(100, 113), smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	tr := mutPool(1, 114)[0]
	if n := testing.AllocsPerRun(100, func() {
		Route(len(e.bounds), func(pid int) PartBounds { return e.bounds[pid] }, tr)
	}); n != 0 {
		t.Fatalf("Route allocates %v times a call", n)
	}
}
