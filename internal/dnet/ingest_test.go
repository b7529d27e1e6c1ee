package dnet

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"dita/internal/gen"
	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/snap"
	"dita/internal/traj"
	"dita/internal/wal"
)

// durableWorker builds a worker persisting snapshots and WALs to dir and
// cold-starts it from whatever the directory holds.
func durableWorker(t *testing.T, dir string, mergeBytes, maxDelta int) (*Worker, *SnapshotLoadReport) {
	t.Helper()
	w := NewWorker()
	ss, err := snap.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := wal.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.SnapStore, w.WALStore = ss, ws
	w.MergeBytes, w.MaxDeltaBytes = mergeBytes, maxDelta
	rep, err := w.LoadSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	return w, rep
}

// ingestCluster starts n durable workers (snapshot + WAL store each) and
// a coordinator. The returned slices stay live: a test that kills
// workers[i] can restart it with durableWorker over dirs[i] and
// Serve(addrs[i]), then store the replacement back into workers[i] so
// cleanup closes the right process.
func ingestCluster(t *testing.T, n int, cfg Config, mergeBytes, maxDelta int) ([]*Worker, []string, []string, *Coordinator) {
	t.Helper()
	workers := make([]*Worker, n)
	addrs := make([]string, n)
	dirs := make([]string, n)
	for i := 0; i < n; i++ {
		dirs[i] = filepath.Join(t.TempDir(), "store")
		w, _ := durableWorker(t, dirs[i], mergeBytes, maxDelta)
		addr, err := w.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers[i], addrs[i] = w, addr
	}
	c, err := Connect(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		for _, w := range workers {
			w.Close()
		}
	})
	return workers, addrs, dirs, c
}

// oracleDataset wraps the logical reference state (the mutations the
// cluster acked, applied to a plain map) as a dataset for the brute-force
// helpers.
func oracleDataset(oracle map[int]*traj.T) *traj.Dataset {
	d := &traj.Dataset{Name: "oracle"}
	for _, tr := range oracle {
		d.Trajs = append(d.Trajs, tr)
	}
	return d
}

// checkDifferential asserts the cluster answers threshold search, kNN and
// the self-join exactly as brute force over the oracle does — the
// differential contract for a mutated dataset.
func checkDifferential(t *testing.T, c *Coordinator, name string, oracle map[int]*traj.T, qs []*traj.T, tau float64) {
	t.Helper()
	od := oracleDataset(oracle)
	m := measure.DTW{}
	checkNetSelfJoin(t, c, name, oracle, tau, m)
	for qi, q := range qs {
		hits, err := c.Search(name, q, tau)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		assertExactHits(t, hits, bruteSearch(od, q, tau))
		for _, k := range []int{1, 5, 17, len(od.Trajs) + 5} {
			want := bruteKNNHits(od, m, q, k)
			got, err := c.SearchKNN(name, q, k)
			if err != nil {
				t.Fatalf("knn query %d k=%d: %v", qi, k, err)
			}
			if !sameHits(got, want) {
				t.Fatalf("knn query %d k=%d: got %d hits, want %d — cluster disagrees with brute force over the mutated oracle",
					qi, k, len(got), len(want))
			}
		}
	}
}

// TestNetIngestDifferential streams inserts, upserts and deletes into a
// live replicated 3-worker cluster with a merge threshold small enough
// that bases are folded repeatedly mid-stream, and asserts after every
// phase that search, kNN and join all agree exactly with brute force over
// the logical oracle.
func TestNetIngestDifferential(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(260, 301))
	extra := gen.Generate(gen.BeijingLike(140, 302))
	workers, _, _, c := ingestCluster(t, 3, chaosConfig(), 1<<10, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	oracle := map[int]*traj.T{}
	for _, tr := range d.Trajs {
		oracle[tr.ID] = tr
	}
	qs := gen.Queries(d, 4, 303)
	tau := 0.01

	// Phase 1: brand-new trajectories.
	for i := 0; i < 80; i++ {
		nt := &traj.T{ID: 500000 + i, Points: extra.Trajs[i].Points}
		if err := c.Ingest("trips", nt); err != nil {
			t.Fatalf("insert %d: %v", nt.ID, err)
		}
		oracle[nt.ID] = nt
	}
	checkDifferential(t, c, "trips", oracle, qs, tau)

	// Phase 2: upserts replace the geometry of dispatched members.
	for j := 0; j < 30; j++ {
		id := d.Trajs[j].ID
		nt := &traj.T{ID: id, Points: extra.Trajs[80+j].Points}
		if err := c.Ingest("trips", nt); err != nil {
			t.Fatalf("upsert %d: %v", id, err)
		}
		oracle[id] = nt
	}
	checkDifferential(t, c, "trips", oracle, qs, tau)

	// Phase 3: deletes of both dispatched and ingested members.
	for j := 30; j < 50; j++ {
		id := d.Trajs[j].ID
		ok, err := c.Delete("trips", id)
		if err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
		}
		delete(oracle, id)
	}
	for i := 0; i < 20; i++ {
		id := 500000 + i
		ok, err := c.Delete("trips", id)
		if err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
		}
		delete(oracle, id)
	}
	if ok, err := c.Delete("trips", 999999999); err != nil || ok {
		t.Fatalf("delete of unknown id: ok=%v err=%v, want false,nil", ok, err)
	}
	checkDifferential(t, c, "trips", oracle, qs, tau)

	// The join shuffle must fold the overlays too: join the mutated
	// dataset against a freshly dispatched static one.
	probes := &traj.Dataset{Name: "probes"}
	for i, tr := range extra.Trajs[110:140] {
		probes.Trajs = append(probes.Trajs, &traj.T{ID: 600000 + i, Points: tr.Points})
	}
	if err := c.Dispatch("probes", probes); err != nil {
		t.Fatal(err)
	}
	pairs, err := c.Join("trips", "probes", tau)
	if err != nil {
		t.Fatal(err)
	}
	m := measure.DTW{}
	want := map[[2]int]bool{}
	for _, x := range oracle {
		for _, y := range probes.Trajs {
			if m.Distance(x.Points, y.Points) <= tau {
				want[[2]int{x.ID, y.ID}] = true
			}
		}
	}
	got := map[[2]int]bool{}
	for _, p := range pairs {
		key := [2]int{p.TID, p.QID}
		if got[key] {
			t.Fatalf("duplicate pair %v", key)
		}
		got[key] = true
	}
	if len(got) != len(want) {
		t.Fatalf("join: got %d pairs, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("join: missing pair %v", k)
		}
	}

	// The 1 KiB merge threshold must have forced base folds mid-stream,
	// or this test never exercised merge + seal + truncate at all.
	var merges int64
	for _, w := range workers {
		merges += w.merges.Load()
	}
	if merges == 0 {
		t.Fatal("no worker merged its overlay; MergeBytes threshold never fired")
	}
}

// TestChaosIngestKillRestartNoAckedLoss is the crash contract: kill a
// worker mid-stream, cold-restart it from its snapshots and WALs, and
// every acked write must be visible — unacked in-flight writes may or may
// not have landed on the surviving replica, but retrying them converges
// the cluster back to exact differential equality.
func TestChaosIngestKillRestartNoAckedLoss(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(200, 311))
	extra := gen.Generate(gen.BeijingLike(120, 312))
	// Huge merge threshold: every mutation stays in the WAL, so the
	// restart exercises replay rather than snapshot reload.
	workers, addrs, dirs, c := ingestCluster(t, 3, chaosConfig(), 1<<30, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	oracle := map[int]*traj.T{}
	for _, tr := range d.Trajs {
		oracle[tr.ID] = tr
	}

	// Healthy phase: inserts, upserts and deletes, all of which must ack.
	for i := 0; i < 30; i++ {
		nt := &traj.T{ID: 500000 + i, Points: extra.Trajs[i].Points}
		if err := c.Ingest("trips", nt); err != nil {
			t.Fatalf("healthy insert %d: %v", nt.ID, err)
		}
		oracle[nt.ID] = nt
	}
	for j := 0; j < 10; j++ {
		id := d.Trajs[j].ID
		nt := &traj.T{ID: id, Points: extra.Trajs[30+j].Points}
		if err := c.Ingest("trips", nt); err != nil {
			t.Fatalf("healthy upsert %d: %v", id, err)
		}
		oracle[id] = nt
	}
	for j := 10; j < 20; j++ {
		id := d.Trajs[j].ID
		if ok, err := c.Delete("trips", id); err != nil || !ok {
			t.Fatalf("healthy delete %d: ok=%v err=%v", id, ok, err)
		}
		delete(oracle, id)
	}

	// Kill worker 1 and keep streaming new ids. A write routed to a
	// partition it owns is refused (replication to every replica is the
	// ack precondition; there is no write failover) — those ids are in
	// limbo: possibly applied on the surviving replica, never required.
	workers[1].Close()
	limbo := map[int]bool{}
	acked := 0
	for i := 30; i < 80; i++ {
		nt := &traj.T{ID: 500000 + i, Points: extra.Trajs[i].Points}
		if err := c.Ingest("trips", nt); err != nil {
			limbo[nt.ID] = true
			continue
		}
		oracle[nt.ID] = nt
		acked++
	}
	if len(limbo) == 0 {
		t.Fatal("no ingest failed with a replica down — the kill did not bite")
	}
	if acked == 0 {
		t.Fatal("every ingest failed; partitions not owned by worker 1 should keep acking")
	}

	// Cold restart from the same directories at the same address.
	w1, rep := durableWorker(t, dirs[1], 1<<30, 0)
	if _, err := w1.Serve(addrs[1]); err != nil {
		t.Fatal(err)
	}
	workers[1] = w1
	if len(rep.Skipped) != 0 {
		t.Fatalf("restart skipped state: %+v", rep.Skipped)
	}
	replayed := 0
	for _, l := range rep.Loaded {
		replayed += l.WALRecords
	}
	if replayed == 0 {
		t.Fatal("restart replayed no WAL records; the healthy-phase mutations must be in worker 1's logs")
	}

	// Zero acked-but-lost: whichever replica answers, every acked write is
	// present; anything extra must be a known in-flight (unacked) write.
	qs := gen.Queries(d, 6, 313)
	tau := 0.01
	od := oracleDataset(oracle)
	for qi, q := range qs {
		hits, err := c.Search("trips", q, tau)
		if err != nil {
			t.Fatalf("query %d after restart: %v", qi, err)
		}
		want := bruteSearch(od, q, tau)
		got := map[int]bool{}
		for _, h := range hits {
			got[h.ID] = true
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("query %d: acked write %d lost after crash + replay", qi, id)
			}
		}
		for id := range got {
			if !want[id] && !limbo[id] {
				t.Fatalf("query %d: hit %d is neither acked state nor an in-flight unacked write", qi, id)
			}
		}
	}

	// Retrying the unacked writes (fresh sequence numbers, idempotent
	// upserts) converges both replicas back to one state.
	for id := range limbo {
		nt := &traj.T{ID: id, Points: extra.Trajs[id-500000].Points}
		var err error
		for attempt := 0; attempt < 50; attempt++ {
			if err = c.Ingest("trips", nt); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("retrying unacked ingest %d: %v", id, err)
		}
		oracle[id] = nt
	}
	checkDifferential(t, c, "trips", oracle, qs, tau)
}

// visibleState folds a worker's partitions the way queries do (base minus
// tombstones, plus delta) into one id → trajectory map.
func visibleState(w *Worker) map[int]*traj.T {
	out := map[int]*traj.T{}
	w.mu.RLock()
	parts := make([]*workerPartition, 0, len(w.parts))
	for _, p := range w.parts {
		parts = append(parts, p)
	}
	w.mu.RUnlock()
	for _, p := range parts {
		for _, tr := range p.store.View().Visible() {
			out[tr.ID] = tr
		}
	}
	return out
}

// TestIngestWALTornTailTruncated crashes "mid-append" by hand: garbage
// bytes after the last fsync'd record must be cut off on the next open,
// reported as truncated, and every acked record must replay.
func TestIngestWALTornTailTruncated(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(80, 321))
	extra := gen.Generate(gen.BeijingLike(40, 322))
	workers, _, dirs, c := ingestCluster(t, 1, testConfig(), 1<<30, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	oracle := map[int]*traj.T{}
	for _, tr := range d.Trajs {
		oracle[tr.ID] = tr
	}
	for i := 0; i < 40; i++ {
		nt := &traj.T{ID: 500000 + i, Points: extra.Trajs[i].Points}
		if err := c.Ingest("trips", nt); err != nil {
			t.Fatalf("insert %d: %v", nt.ID, err)
		}
		oracle[nt.ID] = nt
	}
	workers[0].Close()

	// Tear the tail of the fattest log: garbage that can never checksum
	// as a complete record.
	logs, err := filepath.Glob(filepath.Join(dirs[0], "*.wal"))
	if err != nil || len(logs) == 0 {
		t.Fatalf("no wal files in %s (err=%v)", dirs[0], err)
	}
	victim, victimSize := "", int64(-1)
	for _, path := range logs {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > victimSize {
			victim, victimSize = path, fi.Size()
		}
	}
	garbage := make([]byte, 23)
	for i := range garbage {
		garbage[i] = 0xEE
	}
	f, err := os.OpenFile(victim, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w, rep := durableWorker(t, dirs[0], 1<<30, 0)
	t.Cleanup(func() { w.Close() })
	if len(rep.Skipped) != 0 {
		t.Fatalf("torn tail must truncate, not skip: %+v", rep.Skipped)
	}
	var truncated int64
	replayed := 0
	for _, l := range rep.Loaded {
		truncated += l.WALTruncatedBytes
		replayed += l.WALRecords
	}
	if truncated != int64(len(garbage)) {
		t.Fatalf("truncated %d bytes, want the %d garbage bytes", truncated, len(garbage))
	}
	if replayed != 40 {
		t.Fatalf("replayed %d records, want all 40 acked inserts", replayed)
	}
	visible := visibleState(w)
	if len(visible) != len(oracle) {
		t.Fatalf("restart sees %d trajectories, oracle has %d", len(visible), len(oracle))
	}
	for id, tr := range oracle {
		got := visible[id]
		if got == nil {
			t.Fatalf("acked trajectory %d missing after torn-tail replay", id)
		}
		if len(got.Points) != len(tr.Points) {
			t.Fatalf("trajectory %d: %d points, want %d", id, len(got.Points), len(tr.Points))
		}
		for i := range tr.Points {
			if got.Points[i] != tr.Points[i] {
				t.Fatalf("trajectory %d: point %d differs after replay", id, i)
			}
		}
	}
}

// TestIngestWALCorruptHeaderDiscarded: external damage to a log's header
// (not crash semantics — the magic never tears) is classified "corrupt",
// the log is discarded and re-created, and the partition still serves its
// sealed snapshot.
func TestIngestWALCorruptHeaderDiscarded(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(60, 331))
	extra := gen.Generate(gen.BeijingLike(20, 332))
	workers, _, dirs, c := ingestCluster(t, 1, testConfig(), 1<<30, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		nt := &traj.T{ID: 500000 + i, Points: extra.Trajs[i].Points}
		if err := c.Ingest("trips", nt); err != nil {
			t.Fatalf("insert %d: %v", nt.ID, err)
		}
	}
	workers[0].Close()

	logs, err := filepath.Glob(filepath.Join(dirs[0], "*.wal"))
	if err != nil || len(logs) == 0 {
		t.Fatalf("no wal files in %s (err=%v)", dirs[0], err)
	}
	f, err := os.OpenFile(logs[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("XXXXXXXX"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w, rep := durableWorker(t, dirs[0], 1<<30, 0)
	t.Cleanup(func() { w.Close() })
	found := false
	for _, s := range rep.Skipped {
		if s.Path == logs[0] && s.Class == "corrupt" {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupt WAL header not classified: %+v", rep.Skipped)
	}
	// The base snapshot is intact: every partition still loads.
	ds, pid, ok := wal.ParseFilename(filepath.Base(logs[0]))
	if !ok {
		t.Fatalf("unparseable wal filename %s", logs[0])
	}
	loaded := false
	for _, l := range rep.Loaded {
		if l.Dataset == ds && l.Partition == pid {
			loaded = true
			if l.WALRecords != 0 {
				t.Fatalf("partition %s/%d replayed %d records from a corrupt log", ds, pid, l.WALRecords)
			}
		}
	}
	if !loaded {
		t.Fatalf("partition %s/%d did not load from its snapshot", ds, pid)
	}
	// The discarded log was replaced by a fresh one (header only).
	fi, err := os.Stat(logs[0])
	if err != nil {
		t.Fatalf("corrupt log was not re-created: %v", err)
	}
	if fi.Size() >= 100 {
		t.Fatalf("re-created log still holds %d bytes", fi.Size())
	}
}

// TestIngestBackpressure drives a partition's delta past MaxDeltaBytes:
// the coordinator must surface ErrOverloaded (never silently drop), the
// refusal must kick a merge that drains the buffer, and retrying until
// acked must end in exact differential equality.
func TestIngestBackpressure(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(60, 341))
	extra := gen.Generate(gen.BeijingLike(80, 342))
	// Backpressure bound ~2 trajectories; merges fire only via the
	// rejection kick (the merge threshold is unreachable).
	workers, _, _, c := ingestCluster(t, 1, testConfig(), 1<<30, 700)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	oracle := map[int]*traj.T{}
	for _, tr := range d.Trajs {
		oracle[tr.ID] = tr
	}
	rejected := 0
	for i := 0; i < 80; i++ {
		nt := &traj.T{ID: 500000 + i, Points: extra.Trajs[i].Points}
		err := c.Ingest("trips", nt)
		for attempt := 0; err != nil && attempt < 400; attempt++ {
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("insert %d: %v, want ErrOverloaded", nt.ID, err)
			}
			rejected++
			time.Sleep(5 * time.Millisecond)
			err = c.Ingest("trips", nt)
		}
		if err != nil {
			t.Fatalf("insert %d never drained: %v", nt.ID, err)
		}
		oracle[nt.ID] = nt
	}
	if rejected == 0 {
		t.Fatal("no ingest was refused; the backpressure bound never engaged")
	}
	if got := workers[0].ingestRejected.Load(); got == 0 {
		t.Fatal("worker counted no rejections")
	}
	if got := workers[0].merges.Load(); got == 0 {
		t.Fatal("rejections kicked no merges; the buffer could never drain")
	}
	checkDifferential(t, c, "trips", oracle, gen.Queries(d, 4, 343), 0.01)
}

// TestUnloadRemovesWAL: rolling back a partition must delete its log too,
// or a later re-dispatch would replay mutations onto a base from a
// different epoch.
func TestUnloadRemovesWAL(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(60, 351))
	workers, _, _, c := ingestCluster(t, 1, testConfig(), 0, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	nt := &traj.T{ID: 500000, Points: d.Trajs[0].Points}
	if err := c.Ingest("trips", nt); err != nil {
		t.Fatal(err)
	}
	dd, err := c.dataset("trips")
	if err != nil {
		t.Fatal(err)
	}
	dd.mu.Lock()
	pid := dd.loc[nt.ID]
	dd.mu.Unlock()
	wpath := workers[0].WALStore.Path("trips", pid)
	if _, err := os.Stat(wpath); err != nil {
		t.Fatalf("wal file missing before unload: %v", err)
	}
	spath := workers[0].SnapStore.Path("trips", pid)
	if _, err := os.Stat(spath); err != nil {
		t.Fatalf("snapshot missing before unload: %v", err)
	}
	s := &workerService{w: workers[0]}
	var reply UnloadReply
	if err := s.Unload(&UnloadArgs{Dataset: "trips", Partition: pid}, &reply); err != nil {
		t.Fatal(err)
	}
	if !reply.Unloaded {
		t.Fatal("partition was not held")
	}
	if _, err := os.Stat(wpath); !os.IsNotExist(err) {
		t.Fatalf("wal file survives unload: stat err = %v", err)
	}
	if _, err := os.Stat(spath); !os.IsNotExist(err) {
		t.Fatalf("snapshot survives unload: stat err = %v", err)
	}
}

// TestIngestSeqSurvivesCoordinatorRestart: a new coordinator over live
// workers must seed its sequence numbers above every applied one — a
// coordinator starting at zero would have its first mutations silently
// swallowed by the workers' dedupe floor.
func TestIngestSeqSurvivesCoordinatorRestart(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(120, 361))
	extra := gen.Generate(gen.BeijingLike(30, 362))
	cfg := chaosConfig()
	workers, addrs, _, c := ingestCluster(t, 3, cfg, 1<<30, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		nt := &traj.T{ID: 500000 + i, Points: extra.Trajs[i].Points}
		if err := c.Ingest("trips", nt); err != nil {
			t.Fatalf("insert %d: %v", nt.ID, err)
		}
	}
	seqs := func() map[partKey]uint64 {
		out := map[partKey]uint64{}
		for _, w := range workers {
			w.mu.RLock()
			for k, p := range w.parts {
				if _, _, _, ls := p.identity(); ls > out[k] {
					out[k] = ls
				}
			}
			w.mu.RUnlock()
		}
		return out
	}
	before := seqs()
	var hot partKey
	for k, s := range before {
		if s > before[hot] {
			hot = k
		}
	}
	if before[hot] == 0 {
		t.Fatal("no sequence numbers assigned before the restart")
	}

	c.Close()
	c2, err := Connect(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })
	rep, err := c2.DispatchStats("trips", d)
	if err != nil {
		t.Fatal(err)
	}
	// No merges ran, so the workers' base fingerprints still match the
	// dispatch payloads: the re-dispatch must reuse every replica in
	// place, preserving the overlays and their sequence floors.
	if rep.Reused != rep.Partitions*cfg.Replicas {
		t.Fatalf("re-dispatch did not reuse held partitions: %+v", rep)
	}

	// Upsert a member of the hottest partition (highest applied seq):
	// with correct seeding it applies; with a zero-seeded coordinator it
	// would be deduped as a stale retransmission.
	dd2, err := c2.dataset("trips")
	if err != nil {
		t.Fatal(err)
	}
	dd2.mu.Lock()
	victim := -1
	for id, pid := range dd2.loc {
		if pid == hot.id {
			victim = id
			break
		}
	}
	dd2.mu.Unlock()
	if victim < 0 {
		t.Fatalf("no dispatched id located in partition %d", hot.id)
	}
	up := &traj.T{ID: victim, Points: extra.Trajs[20].Points}
	if err := c2.Ingest("trips", up); err != nil {
		t.Fatal(err)
	}
	after := seqs()
	if after[hot] <= before[hot] {
		t.Fatalf("partition %v seq stuck at %d: the new coordinator reused burned sequence numbers and the upsert was deduped",
			hot, after[hot])
	}
}

// TestNetIngestConcurrentWritersSamePartition: concurrent writers aimed
// at one partition must never have an acked write swallowed. The
// coordinator reserves sequence numbers under one lock but fans the RPCs
// out afterwards; without per-partition serialization two writes can
// arrive at a worker inverted, and the worker's monotone dedupe floor
// then drops the lower-seq record while the coordinator acks it. Every
// writer clones the same dispatched geometry (fresh ids) so routing lands
// all writes in one partition, maximizing contention.
func TestNetIngestConcurrentWritersSamePartition(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(80, 371))
	workers, _, _, c := ingestCluster(t, 1, testConfig(), 1<<30, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	base := d.Trajs[0].Points
	const nWriters, perWriter = 8, 40
	var wg sync.WaitGroup
	errs := make([]error, nWriters)
	for g := 0; g < nWriters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				nt := &traj.T{ID: 700000 + g*perWriter + i, Points: base}
				if err := c.Ingest("trips", nt); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}
	// testConfig injects no failures, so nothing is ever retransmitted:
	// any dedupe here means a first-delivery record arrived below the
	// floor, i.e. out of order.
	if n := workers[0].ingestDeduped.Load(); n != 0 {
		t.Fatalf("%d fresh writes deduped: per-partition write order was not preserved", n)
	}
	visible := visibleState(workers[0])
	lost := 0
	for id := 700000; id < 700000+nWriters*perWriter; id++ {
		if visible[id] == nil {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acked inserts not visible", lost, nWriters*perWriter)
	}
}

// TestUnloadDuringMergeRemovesDurablePair: Unload racing an in-flight
// background merge must still leave the disk clean. A merge that loses
// the race could reseal the snapshot and recreate the WAL after Unload's
// removals, resurrecting state the coordinator already rolled back.
func TestUnloadDuringMergeRemovesDurablePair(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(60, 381))
	workers, _, _, c := ingestCluster(t, 1, testConfig(), 1<<30, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	w := workers[0]
	s := &workerService{w: w}
	dd, err := c.dataset("trips")
	if err != nil {
		t.Fatal(err)
	}
	// Give every partition a delta so each merge has real work, then race
	// a direct merge against Unload, one partition per round.
	dd.mu.Lock()
	byPid := map[int]int{}
	for id, pid := range dd.loc {
		byPid[pid] = id
	}
	dd.mu.Unlock()
	for pid, id := range byPid {
		nt := &traj.T{ID: id, Points: d.Trajs[0].Points}
		if err := c.Ingest("trips", nt); err != nil {
			t.Fatalf("upsert into partition %d: %v", pid, err)
		}
		w.mu.RLock()
		p := w.parts[partKey{"trips", pid}]
		w.mu.RUnlock()
		var mg sync.WaitGroup
		mg.Add(1)
		go func() {
			defer mg.Done()
			w.mergePartition("trips", pid, p)
		}()
		var reply UnloadReply
		if err := s.Unload(&UnloadArgs{Dataset: "trips", Partition: pid}, &reply); err != nil {
			t.Fatalf("unload %d: %v", pid, err)
		}
		if !reply.Unloaded {
			t.Fatalf("partition %d was not held", pid)
		}
		mg.Wait()
		if _, err := os.Stat(w.SnapStore.Path("trips", pid)); !os.IsNotExist(err) {
			t.Fatalf("partition %d: snapshot resurrected after unload: stat err = %v", pid, err)
		}
		if _, err := os.Stat(w.WALStore.Path("trips", pid)); !os.IsNotExist(err) {
			t.Fatalf("partition %d: wal resurrected after unload: stat err = %v", pid, err)
		}
	}
}

// TestIngestRefusesInvalidTrajectories: the network ingest edge refuses
// what the engine's Insert refuses (traj.Validate) — a one-point
// trajectory, a NaN and an infinite coordinate — at the coordinator before
// a sequence number is reserved, and in the worker's Ingest handler before
// the WAL append: no log grows, no number is burned, nothing is visible.
func TestIngestRefusesInvalidTrajectories(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(60, 391))
	workers, _, dirs, c := ingestCluster(t, 1, testConfig(), 1<<30, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	with := func(id int, p geom.Point) *traj.T {
		return &traj.T{ID: id, Points: append(slices.Clone(d.Trajs[1].Points), p)}
	}
	bad := []*traj.T{
		{ID: 900001, Points: d.Trajs[0].Points[:1]},
		with(900002, geom.Point{X: math.NaN(), Y: 0}),
		with(900003, geom.Point{X: 0, Y: math.Inf(1)}),
	}
	logBytes := func() (n int64) {
		logs, err := filepath.Glob(filepath.Join(dirs[0], "*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range logs {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			n += fi.Size()
		}
		return n
	}
	dd, err := c.dataset("trips")
	if err != nil {
		t.Fatal(err)
	}
	seqs := func() []uint64 {
		dd.mu.Lock()
		defer dd.mu.Unlock()
		return slices.Clone(dd.nextSeq)
	}
	logs0, seqs0 := logBytes(), seqs()
	s := &workerService{w: workers[0]}
	for i, tr := range bad {
		if err := c.Ingest("trips", tr); err == nil {
			t.Errorf("coordinator acked trajectory %d (%d points)", tr.ID, len(tr.Points))
		}
		rec := WireRecord{Seq: 1<<40 + uint64(i), Op: wal.OpInsert, ID: tr.ID, Points: tr.Points}
		if err := s.Ingest(&IngestArgs{Dataset: "trips", Records: []WireRecord{rec}}, &IngestReply{}); err == nil {
			t.Errorf("worker applied trajectory %d (%d points)", tr.ID, len(tr.Points))
		}
	}
	if got := seqs(); !slices.Equal(got, seqs0) {
		t.Errorf("sequence numbers %v, were %v: a refused write burned one", got, seqs0)
	}
	if n := logBytes(); n != logs0 {
		t.Errorf("logs hold %d bytes, held %d before the refused writes", n, logs0)
	}
	vis := visibleState(workers[0])
	for _, tr := range bad {
		if vis[tr.ID] != nil {
			t.Errorf("refused trajectory %d is visible", tr.ID)
		}
	}
}
