package dnet

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dita/internal/gen"
	"dita/internal/measure"
	"dita/internal/snap"
	"dita/internal/trie"
)

// snapCluster starts n workers, each persisting to dirs[i] (cold-starting
// from whatever the directory holds), plus a connected coordinator.
func snapCluster(t *testing.T, dirs []string, cfg Config, faults []*snap.FaultPlan) ([]*Worker, []string, []*SnapshotLoadReport, *Coordinator) {
	t.Helper()
	var workers []*Worker
	var addrs []string
	var reports []*SnapshotLoadReport
	for i, dir := range dirs {
		w := NewWorker()
		st, err := snap.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if faults != nil {
			st.Faults = faults[i]
		}
		w.SnapStore = st
		rep, err := w.LoadSnapshots()
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
		addr, err := w.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		addrs = append(addrs, addr)
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
	return workers, addrs, reports, c
}

func tempDirs(t *testing.T, n int) []string {
	t.Helper()
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), "snaps")
	}
	return dirs
}

// TestSnapshotColdStartZeroReship is the headline contract: restart the
// whole cluster over the same snapshot directories and the next dispatch
// ships zero partitions, drops every payload, and answers queries
// byte-identically to the fresh build.
func TestSnapshotColdStartZeroReship(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(300, 201))
	dirs := tempDirs(t, 3)
	cfg := chaosConfig()

	workers, _, reports, c := snapCluster(t, dirs, cfg, nil)
	for i, r := range reports {
		if len(r.Loaded) != 0 || len(r.Skipped) != 0 {
			t.Fatalf("worker %d cold-started from an empty dir with %+v", i, r)
		}
	}
	rep, err := c.DispatchStats("trips", d)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reused != 0 || rep.Loads != rep.Partitions*cfg.Replicas {
		t.Fatalf("fresh dispatch: %+v (want %d loads, 0 reused)", rep, rep.Partitions*cfg.Replicas)
	}
	// Every worker persists, so every partition is durable on a full
	// replica set and every payload must have been released.
	if rep.PayloadsDropped != rep.Partitions {
		t.Fatalf("dropped %d payloads, want %d", rep.PayloadsDropped, rep.Partitions)
	}
	qs := gen.Queries(d, 6, 202)
	tau := 0.01
	type answer struct {
		hits []SearchHit
	}
	var baseline []answer
	for _, q := range qs {
		hits, err := c.Search("trips", q, tau)
		if err != nil {
			t.Fatal(err)
		}
		checkSearch(t, hits, d.Trajs, measure.DTW{}, q, tau)
		baseline = append(baseline, answer{hits})
	}

	// Whole-cluster restart: same directories, fresh processes.
	c.Close()
	for _, w := range workers {
		w.Close()
	}
	_, _, reports2, c2 := snapCluster(t, dirs, cfg, nil)
	for i, r := range reports2 {
		if len(r.Loaded) == 0 {
			t.Fatalf("worker %d restored nothing from its snapshot dir", i)
		}
		if len(r.Skipped) != 0 {
			t.Fatalf("worker %d skipped snapshots on clean restart: %+v", i, r.Skipped)
		}
	}
	rep2, err := c2.DispatchStats("trips", d)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Loads != 0 {
		t.Fatalf("cold-start dispatch shipped %d loads, want 0 (report %+v)", rep2.Loads, rep2)
	}
	if rep2.Reused != rep2.Partitions*cfg.Replicas {
		t.Fatalf("cold-start dispatch reused %d, want %d", rep2.Reused, rep2.Partitions*cfg.Replicas)
	}
	if rep2.PayloadsDropped != rep2.Partitions {
		t.Fatalf("cold-start dispatch dropped %d payloads, want %d", rep2.PayloadsDropped, rep2.Partitions)
	}
	for i, q := range qs {
		hits, err := c2.Search("trips", q, tau)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != len(baseline[i].hits) {
			t.Fatalf("query %d: cold %d hits, fresh %d", i, len(hits), len(baseline[i].hits))
		}
		for j, h := range hits {
			if h != baseline[i].hits[j] {
				t.Fatalf("query %d hit %d: cold %+v, fresh %+v", i, j, h, baseline[i].hits[j])
			}
		}
	}
}

// TestSnapshotCorruptionFallback damages snapshots in every way the format
// must detect — bit flip, truncation, version bump — and requires the
// restart to classify and skip each one (counted on the obs counters),
// re-ship only what was lost, and still answer exactly.
func TestSnapshotCorruptionFallback(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(250, 203))
	dirs := tempDirs(t, 2)
	cfg := chaosConfig()
	workers, _, _, c := snapCluster(t, dirs, cfg, nil)
	if _, err := c.DispatchStats("trips", d); err != nil {
		t.Fatal(err)
	}
	qs := gen.Queries(d, 5, 204)
	tau := 0.01
	c.Close()
	for _, w := range workers {
		w.Close()
	}

	// Corrupt worker 0's store: rotate through the three damage classes.
	names, err := filepath.Glob(filepath.Join(dirs[0], "*.snap"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no snapshots to corrupt: %v", err)
	}
	wantSkips := 0
	for i, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0: // bit rot
			data[len(data)/2] ^= 0x10
		case 1: // torn write
			data = data[:len(data)*3/5]
		case 2: // future format version
			binary.LittleEndian.PutUint32(data[len(data)-16:], snap.Version+7)
		}
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
		wantSkips++
	}

	workers2, _, reports, c2 := snapCluster(t, dirs, cfg, nil)
	if len(reports[0].Skipped) != wantSkips {
		t.Fatalf("worker 0 skipped %d snapshots, want %d: %+v", len(reports[0].Skipped), wantSkips, reports[0].Skipped)
	}
	for i, s := range reports[0].Skipped {
		if s.Class != "corrupt" && s.Class != "version" {
			t.Fatalf("skip %d class %q (%s), want corrupt/version", i, s.Class, s.Err)
		}
		if !strings.HasSuffix(s.Path, ".snap") {
			t.Fatalf("skip %d names a non-snapshot path %q", i, s.Path)
		}
	}
	if got := workers2[0].snapLoadCorrupt.Load(); got != int64(wantSkips) {
		t.Fatalf("snap_load_corrupt = %d, want %d", got, wantSkips)
	}
	if len(reports[1].Skipped) != 0 {
		t.Fatalf("undamaged worker skipped snapshots: %+v", reports[1].Skipped)
	}
	rep, err := c2.DispatchStats("trips", d)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 lost everything; worker 1 kept everything it owned.
	if rep.Loads == 0 {
		t.Fatal("corrupted worker was not re-shipped anything")
	}
	if rep.Reused == 0 {
		t.Fatal("undamaged worker's snapshots were not reused")
	}
	if rep.Loads+rep.Reused != rep.Partitions*cfg.Replicas {
		t.Fatalf("loads %d + reused %d != placements %d", rep.Loads, rep.Reused, rep.Partitions*cfg.Replicas)
	}
	for _, q := range qs {
		hits, err := c2.Search("trips", q, tau)
		if err != nil {
			t.Fatal(err)
		}
		checkSearch(t, hits, d.Trajs, measure.DTW{}, q, tau)
	}
}

// TestSnapshotWriteChaos turns on the storage fault plan — crashed,
// failed, and torn writes — during dispatch. Loads must succeed anyway
// (persistence failure degrades, never fails a load), queries stay exact,
// and a cold restart over the damaged directory classifies every torn
// file instead of crashing, then recovers by re-shipping.
func TestSnapshotWriteChaos(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(250, 205))
	dirs := tempDirs(t, 2)
	cfg := chaosConfig()
	faults := []*snap.FaultPlan{
		{Seed: 11, CrashRate: 0.25, FailRate: 0.1, TornRate: 0.25, FlipRate: 0.1},
		nil,
	}
	workers, _, _, c := snapCluster(t, dirs, cfg, faults)
	rep, err := c.DispatchStats("trips", d)
	if err != nil {
		t.Fatalf("dispatch must tolerate snapshot write faults: %v", err)
	}
	if rep.Loads != rep.Partitions*cfg.Replicas {
		t.Fatalf("fresh dispatch: %+v", rep)
	}
	qs := gen.Queries(d, 5, 206)
	tau := 0.01
	for _, q := range qs {
		hits, err := c.Search("trips", q, tau)
		if err != nil {
			t.Fatal(err)
		}
		checkSearch(t, hits, d.Trajs, measure.DTW{}, q, tau)
	}
	wrote := workers[0].snapWriteOK.Load()
	failed := workers[0].snapWriteErr.Load()
	if wrote+failed != int64(rep.Loads/2) {
		t.Fatalf("worker 0 accounted %d+%d writes, want %d", wrote, failed, rep.Loads/2)
	}
	if failed == 0 {
		t.Fatal("fault plan injected no write failures — rates too low for this seed")
	}
	c.Close()
	for _, w := range workers {
		w.Close()
	}

	// Cold restart over the damaged store: torn/flipped files are
	// classified, never decoded; crashed writes left only .tmp orphans
	// (cleaned by the scan); recovery is a re-ship.
	_, _, reports, c2 := snapCluster(t, dirs, cfg, nil)
	for _, s := range reports[0].Skipped {
		if s.Class != "corrupt" {
			t.Fatalf("damaged store produced class %q (%s), want corrupt", s.Class, s.Err)
		}
	}
	if orphans, _ := filepath.Glob(filepath.Join(dirs[0], "*.tmp")); len(orphans) != 0 {
		t.Fatalf("cold start left crashed-write orphans: %v", orphans)
	}
	rep2, err := c2.DispatchStats("trips", d)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Loads+rep2.Reused != rep2.Partitions*cfg.Replicas {
		t.Fatalf("loads %d + reused %d != placements %d", rep2.Loads, rep2.Reused, rep2.Partitions*cfg.Replicas)
	}
	for _, q := range qs {
		hits, err := c2.Search("trips", q, tau)
		if err != nil {
			t.Fatal(err)
		}
		checkSearch(t, hits, d.Trajs, measure.DTW{}, q, tau)
	}
}

// TestSnapshotHealAfterPayloadDrop is the satellite-2 regression: with
// payloads released (the coordinator memory saving), killing a worker
// must still heal every partition back to full replication — the target
// pulls the snapshot from the surviving replica — and results must stay
// exact even after a second worker dies.
func TestSnapshotHealAfterPayloadDrop(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(300, 207))
	dirs := tempDirs(t, 3)
	cfg := chaosConfig()
	workers, _, _, c := snapCluster(t, dirs, cfg, nil)
	rep, err := c.DispatchStats("trips", d)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PayloadsDropped != rep.Partitions {
		t.Fatalf("payloads retained: %+v", rep)
	}
	dd, err := c.dataset("trips")
	if err != nil {
		t.Fatal(err)
	}
	dd.mu.Lock()
	for pid := range dd.parts {
		if dd.parts[pid].payload != nil {
			t.Fatalf("partition %d still holds its payload", pid)
		}
	}
	dd.mu.Unlock()

	workers[1].Close()
	c.CheckHealth()
	states := c.CheckHealth()
	if states[1] != Dead {
		t.Fatalf("worker 1 = %v, want dead", states[1])
	}
	dd.mu.Lock()
	for pid, owners := range dd.replicas {
		if len(owners) != cfg.Replicas {
			t.Fatalf("partition %d has %d replicas after snapshot heal, want %d", pid, len(owners), cfg.Replicas)
		}
		for _, w := range owners {
			if w == 1 {
				t.Fatalf("partition %d still lists dead worker 1", pid)
			}
		}
	}
	dd.mu.Unlock()
	// Snapshot healing replicated real content: losing another worker
	// must not lose answers.
	workers[2].Close()
	tau := 0.01
	for _, q := range gen.Queries(d, 5, 208) {
		hits, err := c.Search("trips", q, tau)
		if err != nil {
			t.Fatal(err)
		}
		checkSearch(t, hits, d.Trajs, measure.DTW{}, q, tau)
	}
}

// TestRetainPayloadsOptOut: the escape hatch keeps payloads in memory
// even when snapshots are durable everywhere.
func TestRetainPayloadsOptOut(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(120, 209))
	dirs := tempDirs(t, 2)
	cfg := chaosConfig()
	cfg.RetainPayloads = true
	_, _, _, c := snapCluster(t, dirs, cfg, nil)
	rep, err := c.DispatchStats("trips", d)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PayloadsDropped != 0 {
		t.Fatalf("RetainPayloads dropped %d payloads", rep.PayloadsDropped)
	}
	dd, _ := c.dataset("trips")
	dd.mu.Lock()
	defer dd.mu.Unlock()
	for pid := range dd.parts {
		if dd.parts[pid].payload == nil {
			t.Fatalf("partition %d payload released despite RetainPayloads", pid)
		}
	}
}

// TestWorkerSnapshotLifecycle exercises the worker-local persistence
// contract directly: Load persists and reports durability, an identical
// reload is recognized without a rebuild, and Unload removes the file so
// a cold start cannot resurrect rolled-back data.
func TestWorkerSnapshotLifecycle(t *testing.T) {
	dir := t.TempDir()
	w := NewWorker()
	st, err := snap.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.SnapStore = st
	svc := &workerService{w: w}

	d := gen.Generate(gen.BeijingLike(40, 210))
	opts := snap.BuildOptions{Measure: "DTW", K: 2, NLAlign: 3, NLPivot: 2, MinNode: 2}
	args := sealPartition("trips", 3, opts, d.Trajs)

	// An image that is not the content the coordinator named is refused
	// before anything is installed or persisted.
	wrong := *args
	wrong.Fingerprint++
	if err := svc.Load(&wrong, &LoadReply{}); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatched fingerprint: err = %v, want a fingerprint refusal", err)
	}
	elsewhere := *args
	elsewhere.Partition = 4
	if err := svc.Load(&elsewhere, &LoadReply{}); err == nil {
		t.Fatal("image of partition 3 accepted as partition 4")
	}
	torn := *args
	torn.Image = args.Image[:len(args.Image)-9]
	if err := svc.Load(&torn, &LoadReply{}); !snap.IsCorrupt(err) {
		t.Fatalf("torn image: err = %v, want a corrupt-snapshot error", err)
	}
	w.mu.RLock()
	installed := len(w.parts)
	w.mu.RUnlock()
	if files, _ := os.ReadDir(dir); installed != 0 || len(files) != 0 || w.snapWriteOK.Load() != 0 {
		t.Fatalf("refused loads left state behind: %d partitions, %d files", installed, len(files))
	}

	var rep LoadReply
	if err := svc.Load(args, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Snapshotted || rep.SnapshotBytes <= 0 {
		t.Fatalf("load not persisted: %+v", rep)
	}
	if onDisk, err := os.ReadFile(st.Path("trips", 3)); err != nil || !bytes.Equal(onDisk, args.Image) {
		t.Fatalf("snapshot file is not the received image verbatim (err %v)", err)
	}
	if got := w.snapWriteOK.Load(); got != 1 {
		t.Fatalf("snap_write_ok = %d, want 1", got)
	}

	// Identical reload: recognized by fingerprint before the image is even
	// decoded (a torn one would fail otherwise), nothing reinstalled.
	args = &torn
	w.mu.RLock()
	before := w.parts[partKey{"trips", 3}]
	w.mu.RUnlock()
	var rep2 LoadReply
	if err := svc.Load(args, &rep2); err != nil {
		t.Fatal(err)
	}
	w.mu.RLock()
	after := w.parts[partKey{"trips", 3}]
	w.mu.RUnlock()
	if before != after {
		t.Fatal("identical reload rebuilt the partition")
	}
	if !rep2.Snapshotted || rep2.SnapshotBytes != rep.SnapshotBytes {
		t.Fatalf("reload durability report: %+v, want %+v", rep2, rep)
	}

	// Changed content at the same key must rebuild.
	var rep3 LoadReply
	if err := svc.Load(sealPartition("trips", 3, opts, d.Trajs[:d.Len()-1]), &rep3); err != nil {
		t.Fatal(err)
	}
	w.mu.RLock()
	changed := w.parts[partKey{"trips", 3}]
	w.mu.RUnlock()
	if changed == after {
		t.Fatal("changed content did not rebuild the partition")
	}

	var urep UnloadReply
	if err := svc.Unload(&UnloadArgs{Dataset: "trips", Partition: 3}, &urep); err != nil {
		t.Fatal(err)
	}
	if !urep.Unloaded {
		t.Fatal("unload found nothing")
	}
	if _, err := os.Stat(st.Path("trips", 3)); !os.IsNotExist(err) {
		t.Fatalf("unload left the snapshot file behind: %v", err)
	}
	rep4, err := w.LoadSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep4.Loaded) != 0 {
		t.Fatalf("cold start resurrected unloaded partitions: %+v", rep4.Loaded)
	}
}

// TestDispatchShipsOneSealedImage: the file every replica holds after a
// dispatch is byte for byte what a worker used to produce by building the
// partition itself from the shipped members — trie.Build over them, then
// snap.Encode — and so the same on every replica: sealing at the coordinator
// changed who builds, not what is stored.
func TestDispatchShipsOneSealedImage(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(300, 211))
	dirs := tempDirs(t, 3)
	cfg := chaosConfig()
	cfg.RetainPayloads = true // the members of each partition, for the reference build
	_, _, _, c := snapCluster(t, dirs, cfg, nil)
	rep, err := c.DispatchStats("trips", d)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loads != rep.Partitions*cfg.Replicas {
		t.Fatalf("loads = %d, want %d", rep.Loads, rep.Partitions*cfg.Replicas)
	}
	dd, _ := c.dataset("trips")
	dd.mu.Lock()
	defer dd.mu.Unlock()
	for pid, part := range dd.parts {
		want := snap.Encode(&snap.Snapshot{
			Dataset: "trips", Partition: pid, Opts: dd.opts, Trajs: part.payload,
			Index: trie.Build(part.payload, cfg.Trie),
		})
		for _, w := range dd.replicas[pid] {
			got, err := os.ReadFile(filepath.Join(dirs[w], snap.Filename("trips", pid)))
			if err != nil {
				t.Fatalf("partition %d on worker %d: %v", pid, w, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("partition %d on worker %d: %d stored bytes differ from the %d a worker-built partition encodes to",
					pid, w, len(got), len(want))
			}
		}
	}
}

// TestLoadSnapshotsReportOrder: the files decode concurrently, the report
// does not show it. With one bit-rotted and one wrong-version file among
// many, Loaded and Skipped are what reading the directory file by file, in
// Scan order, gives — entry for entry, class for class.
func TestLoadSnapshotsReportOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	d := gen.Generate(gen.BeijingLike(400, 212))
	dirs := tempDirs(t, 1)
	cfg := chaosConfig()
	workers, _, _, c := snapCluster(t, dirs, cfg, nil)
	if _, err := c.DispatchStats("trips", d); err != nil {
		t.Fatal(err)
	}
	c.Close()
	workers[0].Close()

	st, err := snap.NewStore(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	entries, err := st.Scan()
	if err != nil || len(entries) < 6 {
		t.Fatalf("%d snapshot files (err %v), want at least 6", len(entries), err)
	}
	damage := func(e snap.Entry, f func(data []byte)) {
		data, err := os.ReadFile(e.Path)
		if err != nil {
			t.Fatal(err)
		}
		f(data)
		if err := os.WriteFile(e.Path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damage(entries[len(entries)/2], func(data []byte) { data[len(data)/2] ^= 0x10 })
	damage(entries[1], func(data []byte) { binary.LittleEndian.PutUint32(data[len(data)-16:], snap.Version+7) })

	var wantLoaded []SnapshotLoaded
	var wantSkipped []SnapshotSkipped
	for _, e := range entries {
		sn, err := snap.LoadFile(e.Path)
		if err != nil {
			wantSkipped = append(wantSkipped, SnapshotSkipped{Path: e.Path, Class: snap.Classify(err), Err: err.Error()})
			continue
		}
		fi, _ := os.Stat(e.Path)
		wantLoaded = append(wantLoaded, SnapshotLoaded{
			Dataset: sn.Dataset, Partition: sn.Partition, Trajs: len(sn.Trajs),
			Bytes: fi.Size(), Fingerprint: sn.Fingerprint,
		})
	}
	if len(wantSkipped) != 2 || wantSkipped[0].Class != "version" || wantSkipped[1].Class != "corrupt" {
		t.Fatalf("test setup: serial skips = %+v, want one version then one corrupt", wantSkipped)
	}

	w := NewWorker()
	w.SnapStore = st
	rep, err := w.LoadSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Loaded, wantLoaded) {
		t.Fatalf("Loaded differs from the file-by-file read:\n got %+v\nwant %+v", rep.Loaded, wantLoaded)
	}
	if !reflect.DeepEqual(rep.Skipped, wantSkipped) {
		t.Fatalf("Skipped differs from the file-by-file read:\n got %+v\nwant %+v", rep.Skipped, wantSkipped)
	}
	if ok, bad := w.snapLoadOK.Load(), w.snapLoadCorrupt.Load(); ok != int64(len(wantLoaded)) || bad != 2 {
		t.Fatalf("snap_load_ok = %d, snap_load_corrupt = %d, want %d and 2", ok, bad, len(wantLoaded))
	}
}

// TestFormat1FileSkippedThenHealed: a snapshot file left by a binary from
// before format 2 costs exactly its own partition on its own worker. The cold
// start reports it under "version" and loads every other file; the coordinator
// recovers the dataset from what the workers hold and its heal brings the
// partition back to full replication from the surviving replica.
func TestFormat1FileSkippedThenHealed(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(300, 213))
	dirs := tempDirs(t, 3)
	cfg := chaosConfig()
	workers, _, _, c := snapCluster(t, dirs, cfg, nil)
	if _, err := c.DispatchStats("trips", d); err != nil {
		t.Fatal(err)
	}
	c.Close()
	for _, w := range workers {
		w.Close()
	}

	st, err := snap.NewStore(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	entries, err := st.Scan()
	if err != nil || len(entries) < 2 {
		t.Fatalf("worker 0 holds %d snapshot files (err %v), want at least 2", len(entries), err)
	}
	victim := entries[0]
	data, err := os.ReadFile(victim.Path)
	if err != nil {
		t.Fatal(err)
	}
	// Stamp the image as format 1: header and footer version, body checksum
	// re-sealed, so the version is the only thing a reader can object to.
	body := data[:len(data)-24]
	binary.LittleEndian.PutUint32(body[8:], 1)
	binary.LittleEndian.PutUint32(data[len(data)-16:], 1)
	binary.LittleEndian.PutUint32(data[len(data)-12:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(victim.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, reports, c2 := snapCluster(t, dirs, cfg, nil)
	if sk := reports[0].Skipped; len(sk) != 1 || sk[0].Class != "version" || sk[0].Path != victim.Path {
		t.Fatalf("worker 0 skipped %+v, want exactly %s under \"version\"", sk, victim.Path)
	}
	if got := len(reports[0].Loaded); got != len(entries)-1 {
		t.Fatalf("worker 0 loaded %d of its %d current files", got, len(entries)-1)
	}
	if len(reports[1].Skipped)+len(reports[2].Skipped) != 0 {
		t.Fatalf("undamaged workers skipped files: %+v %+v", reports[1].Skipped, reports[2].Skipped)
	}

	if _, err := c2.RecoverDataset("trips"); err != nil {
		t.Fatal(err)
	}
	dd, _ := c2.dataset("trips")
	dd.mu.Lock()
	before := len(dd.replicas[victim.Partition])
	dd.mu.Unlock()
	if before != cfg.Replicas-1 {
		t.Fatalf("partition %d recovered with %d replicas, want %d (one copy refused)", victim.Partition, before, cfg.Replicas-1)
	}
	c2.CheckHealth()
	dd.mu.Lock()
	owners := append([]int(nil), dd.replicas[victim.Partition]...)
	dd.mu.Unlock()
	if len(owners) != cfg.Replicas {
		t.Fatalf("partition %d has %d replicas after the heal, want %d", victim.Partition, len(owners), cfg.Replicas)
	}
	for _, w := range owners {
		sn, err := snap.LoadFile(filepath.Join(dirs[w], snap.Filename("trips", victim.Partition)))
		if err != nil || sn.Partition != victim.Partition {
			t.Fatalf("replica of partition %d on worker %d: %v", victim.Partition, w, err)
		}
	}
	for _, q := range gen.Queries(d, 5, 214) {
		hits, err := c2.Search("trips", q, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		checkSearch(t, hits, d.Trajs, measure.DTW{}, q, 0.01)
	}
}
