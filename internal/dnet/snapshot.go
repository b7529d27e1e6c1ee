package dnet

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"dita/internal/core"
	"dita/internal/measure"
	"dita/internal/pivot"
	"dita/internal/snap"
	"dita/internal/traj"
	"dita/internal/trie"
	"dita/internal/wal"
)

// trieConfig is the trie configuration a partition's build options name.
func trieConfig(o snap.BuildOptions) trie.Config {
	return trie.Config{
		K:        o.K,
		NLAlign:  o.NLAlign,
		NLPivot:  o.NLPivot,
		MinNode:  o.MinNode,
		Strategy: pivot.Strategy(o.Strategy),
	}
}

// sealPartition builds the partition's trie and encodes its snapshot image,
// once, on the sending side: every Worker.Load — dispatch, rebalance pieces,
// payload heals and promotions — ships what this returns, and each receiving
// replica installs the same bytes instead of building and encoding its own.
// The members slice is only read.
func sealPartition(name string, pid int, opts snap.BuildOptions, members []*traj.T) *LoadArgs {
	sn := &snap.Snapshot{
		Dataset: name, Partition: pid, Opts: opts,
		Trajs: members, Index: trie.Build(members, trieConfig(opts)),
	}
	image := snap.Encode(sn)
	return &LoadArgs{Dataset: name, Partition: pid, Fingerprint: sn.Fingerprint, Image: image}
}

// partitionFromSnapshot rebuilds the in-memory partition state from a
// verified snapshot: measure by name, a store over the image's members and
// trie (verification metadata recomputed: it is derived state, deliberately
// not serialized) whose ingest floor is the image's watermark — every
// logged record at or below it is already folded into the members.
func partitionFromSnapshot(s *snap.Snapshot) (*workerPartition, error) {
	m, err := measure.ByName(s.Opts.Measure, s.Opts.Eps, s.Opts.Delta)
	if err != nil {
		return nil, err
	}
	return &workerPartition{
		store:       core.NewStore(trieConfig(s.Opts), s.Trajs, s.Index, s.Watermark),
		m:           m,
		opts:        s.Opts,
		fingerprint: s.Fingerprint,
	}, nil
}

// holding returns the partition held at (dataset, pid) when its content is
// exactly fp — a retried load, or content a cold start restored: there is
// nothing to transfer or decode. nil otherwise, and always for fp 0.
func (w *Worker) holding(dataset string, pid int, fp uint64) *workerPartition {
	w.mu.RLock()
	held := w.parts[partKey{dataset, pid}]
	w.mu.RUnlock()
	if held == nil || fp == 0 {
		return nil
	}
	if hfp, _, _, _ := held.identity(); hfp != fp {
		return nil
	}
	return held
}

// installImage makes a sealed image this worker's partition (dataset, pid),
// the one path Load and Replicate share with nothing built on it: the full
// snap.Decode verification (wire corruption is caught exactly like disk
// corruption), the identity the caller asked for (fp 0 = unpinned), a new
// WAL epoch, the received bytes persisted verbatim, then the install. A
// refused image leaves the worker as it was — nothing installed, nothing
// persisted, any held partition and its log still serving. Persistence
// failure degrades: the partition still serves from memory, the write is
// counted, and the replies advertise Snapshotted=false so the coordinator
// keeps other durability.
func (w *Worker) installImage(dataset string, pid int, fp uint64, image []byte) (*workerPartition, error) {
	sn, err := snap.Decode(image)
	if err != nil {
		return nil, err
	}
	if sn.Dataset != dataset || sn.Partition != pid {
		return nil, fmt.Errorf("image holds %s/%d", sn.Dataset, sn.Partition)
	}
	if fp != 0 && sn.Fingerprint != fp {
		return nil, fmt.Errorf("content fingerprint %016x, want %016x", sn.Fingerprint, fp)
	}
	p, err := partitionFromSnapshot(sn)
	if err != nil {
		return nil, err
	}
	// The image starts a new WAL epoch: any log this worker kept extends a
	// base the install replaces wholesale, so replaying it would resurrect
	// deltas from a dead epoch. (The image's watermark already covers every
	// mutation folded into it.) Holding the old partition's folds fences any
	// in-flight merge: its seal and WAL truncation land before the epoch
	// reset below, never on top of the new epoch's files.
	w.mu.RLock()
	held := w.parts[partKey{dataset, pid}]
	w.mu.RUnlock()
	if held != nil {
		held.store.CloseLog()
		defer held.store.HoldFolds()()
	}
	if w.WALStore != nil {
		w.WALStore.Remove(dataset, pid)
		if l, _, err := w.WALStore.Open(dataset, pid); err == nil {
			p.store.Recover(l, nil)
		}
	}
	if w.SnapStore != nil {
		if size, err := w.SnapStore.SaveImage(dataset, pid, image); err != nil {
			w.snapWriteErr.Add(1)
		} else {
			w.snapWriteOK.Add(1)
			p.snapped, p.snapBytes = true, size
		}
	}
	w.installPartition(dataset, pid, p)
	return p, nil
}

func (w *Worker) installPartition(dataset string, pid int, p *workerPartition) {
	w.mu.Lock()
	w.parts[partKey{dataset, pid}] = p
	w.mu.Unlock()
}

// SnapshotLoaded describes one partition restored during cold start.
type SnapshotLoaded struct {
	Dataset     string
	Partition   int
	Trajs       int
	Bytes       int64
	Fingerprint uint64
	// WALRecords is how many logged mutations past the snapshot's
	// watermark were replayed onto it; WALTruncatedBytes is the torn tail
	// (a crashed append) the WAL open cut off. Both zero when the worker
	// runs without a WAL store.
	WALRecords        int
	WALTruncatedBytes int64
}

// SnapshotSkipped describes one snapshot file the cold start refused,
// with its error class ("corrupt", "version", "io", "config", "orphan")
// — the classified skip report the operator sees at startup. "orphan"
// names a WAL whose base snapshot is gone: its deltas are unreplayable,
// so the file is reported and deleted rather than silently discarded.
type SnapshotSkipped struct {
	Path  string
	Class string
	Err   string
}

// SnapshotLoadReport summarizes a cold start from the snapshot directory.
type SnapshotLoadReport struct {
	Loaded  []SnapshotLoaded
	Skipped []SnapshotSkipped
}

// LoadSnapshots cold-starts the worker from its snapshot directory: every
// file is fully verified and installed; anything torn, bit-rotted,
// version-mismatched, or unreadable is skipped with a classified report
// entry — never a crash — and the coordinator re-ships those partitions
// on its next dispatch or heal. Call before Serve (it does not lock out
// RPCs during the scan).
func (w *Worker) LoadSnapshots() (*SnapshotLoadReport, error) {
	rep := &SnapshotLoadReport{}
	if w.SnapStore == nil {
		// No snapshots means no WAL can be replayed either: every log in
		// the WAL store extends a base this worker no longer has.
		w.sweepOrphanWALs(rep)
		return rep, nil
	}
	entries, err := w.SnapStore.Scan()
	if err != nil {
		return rep, err
	}
	// Reading and verifying a file (snap.LoadFile: CRCs, the trajectory and
	// trie decode, the envelope pass, the fingerprint) is nearly all of a
	// cold start and touches nothing shared, so the files decode in a pool
	// bounded by GOMAXPROCS. Everything with an order or a side effect — WAL
	// replay, install, counters, the report — stays below, in Scan order.
	snaps := make([]*snap.Snapshot, len(entries))
	errs := make([]error, len(entries))
	var wg sync.WaitGroup
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, e := range entries {
		wg.Add(1)
		slots <- struct{}{}
		go func(i int, path string) {
			defer wg.Done()
			snaps[i], errs[i] = snap.LoadFile(path)
			<-slots
		}(i, e.Path)
	}
	wg.Wait()
	for i, e := range entries {
		s, err := snaps[i], errs[i]
		if err != nil {
			class := snap.Classify(err)
			if class == "io" {
				w.snapLoadErr.Add(1)
			} else {
				w.snapLoadCorrupt.Add(1)
			}
			rep.Skipped = append(rep.Skipped, SnapshotSkipped{Path: e.Path, Class: class, Err: err.Error()})
			continue
		}
		p, err := partitionFromSnapshot(s)
		if err != nil {
			// The image verified but this build can't serve it (e.g. a
			// measure name this binary doesn't know).
			w.snapLoadErr.Add(1)
			rep.Skipped = append(rep.Skipped, SnapshotSkipped{Path: e.Path, Class: "config", Err: err.Error()})
			continue
		}
		p.snapped = true
		if fi, err := os.Stat(e.Path); err == nil {
			p.snapBytes = fi.Size()
		}
		loaded := SnapshotLoaded{
			Dataset:     s.Dataset,
			Partition:   s.Partition,
			Trajs:       len(s.Trajs),
			Bytes:       p.snapBytes,
			Fingerprint: s.Fingerprint,
		}
		w.replayWAL(p, &loaded, rep)
		w.installPartition(s.Dataset, s.Partition, p)
		w.snapLoadOK.Add(1)
		rep.Loaded = append(rep.Loaded, loaded)
	}
	w.sweepOrphanWALs(rep)
	return rep, nil
}

// replayWAL opens the partition's write-ahead log and has the store replay
// the suffix past the snapshot's watermark and keep the log for the
// partition's future appends (core.Store.Recover). The open itself
// truncates any torn tail from a crashed append — expected, counted,
// never an error. A mangled header, or a record the store refuses, leaves
// no trustworthy suffix: the file is discarded (classified in the skip
// report) and a fresh log opened; mutations it held past the watermark
// are restored from replica peers, not this disk.
func (w *Worker) replayWAL(p *workerPartition, loaded *SnapshotLoaded, rep *SnapshotLoadReport) {
	if w.WALStore == nil {
		return
	}
	ds, pid := loaded.Dataset, loaded.Partition
	start := time.Now()
	l, wrep, err := w.WALStore.Open(ds, pid)
	var recs []wal.Record
	if err == nil {
		if recs, err = p.store.Recover(l, wrep.Records); err != nil {
			l.Close()
		}
	}
	if err != nil {
		rep.Skipped = append(rep.Skipped, SnapshotSkipped{
			Path: w.WALStore.Path(ds, pid), Class: wal.Classify(err), Err: err.Error(),
		})
		w.WALStore.Remove(ds, pid)
		if l2, _, err2 := w.WALStore.Open(ds, pid); err2 == nil {
			p.store.Recover(l2, nil)
		}
		return
	}
	loaded.WALRecords = len(recs)
	loaded.WALTruncatedBytes = wrep.TruncatedBytes
	w.walReplayed.Add(int64(loaded.WALRecords))
	w.walTruncated.Add(wrep.TruncatedBytes)
	w.walReplayUS.Add(time.Since(start).Microseconds())
}

// sweepOrphanWALs deletes log files with no matching held partition: a
// WAL without its base snapshot cannot be replayed (the deltas extend a
// base that no longer exists), and keeping it would poison whatever
// lands at that (dataset, partition) next. The coordinator re-ships or
// re-replicates those partitions from its other copies. Each orphan is
// counted (snap_wal_orphaned_total) and lands in the cold-start report
// as a classified "orphan" skip — durably logged mutations are being
// dropped, and an operator staring at a post-crash recovery needs that
// fact in front of them, not silently swept away.
func (w *Worker) sweepOrphanWALs(rep *SnapshotLoadReport) {
	if w.WALStore == nil {
		return
	}
	entries, err := w.WALStore.Scan()
	if err != nil {
		return
	}
	for _, e := range entries {
		w.mu.RLock()
		_, held := w.parts[partKey{e.Dataset, e.Partition}]
		w.mu.RUnlock()
		if !held {
			w.walOrphaned.Add(1)
			if rep != nil {
				rep.Skipped = append(rep.Skipped, SnapshotSkipped{
					Path:  w.WALStore.Path(e.Dataset, e.Partition),
					Class: "orphan",
					Err: fmt.Sprintf("WAL for %s/%d has no base snapshot; unreplayable, deleted",
						e.Dataset, e.Partition),
				})
			}
			w.WALStore.Remove(e.Dataset, e.Partition)
		}
	}
}

// Inventory implements the held-partition listing the coordinator uses to
// skip re-shipping content a worker already holds (cold-started from
// snapshots or surviving from an earlier dispatch).
func (s *workerService) Inventory(args *InventoryArgs, reply *InventoryReply) error {
	if !s.w.beginRPC() {
		return errDraining
	}
	defer s.w.endRPC()
	s.w.mu.RLock()
	for k, p := range s.w.parts {
		fp, snapped, _, lastSeq := p.identity()
		reply.Parts = append(reply.Parts, InventoryPart{
			Dataset: k.dataset, Partition: k.id,
			Fingerprint: fp, Snapshotted: snapped, LastSeq: lastSeq,
		})
	}
	s.w.mu.RUnlock()
	sort.Slice(reply.Parts, func(a, b int) bool {
		if reply.Parts[a].Dataset != reply.Parts[b].Dataset {
			return reply.Parts[a].Dataset < reply.Parts[b].Dataset
		}
		return reply.Parts[a].Partition < reply.Parts[b].Partition
	})
	return nil
}

// Export implements the healing transfer source: the snapshot image of one
// held partition's visible state (core.Store.Export), encoded from live
// memory (so it works even on workers running without a snapshot
// directory). A live ingest overlay is folded into the image — the
// transfer must carry every acked write, or healing onto a new replica
// would silently roll them back.
func (s *workerService) Export(args *ExportArgs, reply *ExportReply) (err error) {
	if !s.w.beginRPC() {
		return errDraining
	}
	defer s.w.endRPC()
	defer rpcRecover("export", &err)
	p, err := s.partition(args.Dataset, args.Partition)
	if err != nil {
		return err
	}
	img := p.store.Export()
	img.Dataset, img.Partition, img.Opts = args.Dataset, args.Partition, p.opts
	reply.Data = snap.Encode(img)
	return nil
}

// Replicate implements snapshot-based healing: fetch the partition's
// image from a peer, verify it end to end (snap.Decode catches wire
// corruption exactly like disk corruption), install, and persist. A
// transport-level failure reaching the peer is reported with the
// peer-unreachable prefix so the coordinator can distinguish "source is
// down" from "this worker failed".
func (s *workerService) Replicate(args *ReplicateArgs, reply *ReplicateReply) (err error) {
	if !s.w.beginRPC() {
		return errDraining
	}
	defer s.w.endRPC()
	defer rpcRecover("replicate", &err)

	p := s.w.holding(args.Dataset, args.Partition, args.Fingerprint)
	if p == nil {
		mc := newManagedClient(args.SrcAddr, shipRetry)
		defer mc.Close()
		var ex ExportReply
		if err := mc.Call("Worker.Export", &ExportArgs{Dataset: args.Dataset, Partition: args.Partition}, &ex); err != nil {
			if retryableError(err) {
				return fmt.Errorf("%s%s: %v", peerUnreachablePrefix, args.SrcAddr, err)
			}
			return err
		}
		s.w.bytesIn.Add(int64(len(ex.Data)))
		if p, err = s.w.installImage(args.Dataset, args.Partition, args.Fingerprint, ex.Data); err != nil {
			return fmt.Errorf("dnet: replicate %s/%d from %s: %w", args.Dataset, args.Partition, args.SrcAddr, err)
		}
	}
	reply.Trajs, reply.IndexBytes = p.store.BaseSize()
	_, reply.Snapshotted, _, _ = p.identity()
	return nil
}
