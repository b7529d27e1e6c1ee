package core

import (
	"errors"
	"fmt"
	"time"

	"dita/internal/snap"
	"dita/internal/traj"
	"dita/internal/wal"
)

// This file implements streaming ingest: a built engine becomes mutable by
// routing each mutation to one partition's store (store.go), which appends
// it to the partition-local write-ahead log before it touches memory. A
// partition's durable state is always the pair (newest sealed snapshot, WAL
// suffix past the snapshot's watermark); a crash at any point recovers by
// replaying that suffix onto the snapshot.
//
// WAL records are partition-local operations — "upsert this trajectory
// into this partition", "delete this id from this partition" — never
// global ones. That makes replay of one partition independent of every
// other partition's log and of merge timing: each log is a
// self-contained suffix over its own base, so per-partition snapshots
// may fold (and truncate their logs) on independent schedules without
// ever losing a cross-partition ordering dependency. The engine's
// routing decisions (which partition an insert lands in) are recorded by
// *where* the record was appended, not re-derived at replay.
//
// The location map, the sequence counter, the partitions' MBRs and the global
// index over them are the engine's Layout (layout.go), which the network
// coordinator holds one of per dataset too.

// IngestConfig wires mutation support into a built engine.
type IngestConfig struct {
	// WAL, when non-nil, makes mutations durable: every Insert/Delete
	// appends a checksummed record to the partition's log (fsync'd)
	// before touching the in-memory overlay. Nil keeps deltas
	// memory-only — useful for tests and benchmarks, crash-unsafe.
	WAL *wal.Store
	// Snap, when non-nil, lets merges seal the rebuilt partition as a
	// snapshot; only after a successful seal is the partition's WAL
	// truncated through the snapshot's watermark (a WAL may shrink only
	// once its records are durable elsewhere). With WAL set but Snap
	// nil, logs are kept intact across merges and grow without bound.
	Snap *snap.Store
	// MergeBytes is MergePolicy.MergeBytes: a partition whose delta
	// reaches it merges itself inside the mutation that crossed it.
	MergeBytes int
	// MaxDeltaBytes is MergePolicy.MaxDeltaBytes: a mutation to a partition
	// whose overlay holds it fails with ErrDeltaBacklog.
	MaxDeltaBytes int
	// AutoMerge does nothing: every partition merges itself at MergeBytes,
	// on both hosts. It is kept for the callers that still set it.
	AutoMerge bool
	// Replay, on an engine cold-started from snapshots, re-applies each
	// partition's WAL suffix past the snapshot's watermark. Leave false
	// on a freshly built engine: a fresh base is a new epoch, so any
	// surviving logs are reset instead — a WAL must never outlive the
	// base it extends.
	Replay bool
}

// ReplaySummary reports what EnableIngest recovered from the logs.
type ReplaySummary struct {
	// Records counts WAL records re-applied past the watermarks.
	Records int
	// TruncatedBytes counts invalid (torn or corrupted) tail bytes
	// dropped across all logs.
	TruncatedBytes int64
	// Duration is the wall-clock replay time (opening, scanning and
	// re-applying all logs).
	Duration time.Duration
	// MaxSeq is the highest sequence number re-applied (0 when none).
	MaxSeq uint64
	// DupsMasked counts trajectories that appeared visible in two
	// partitions' durable states at once — possible only under silent
	// media corruption that severed a cross-partition move — and were
	// deterministically masked down to one copy.
	DupsMasked int
}

// ingestState is the engine's ingest configuration, nil until EnableIngest.
// Guarded by Engine.mu.
type ingestState struct {
	cfg IngestConfig
	pol MergePolicy
}

// IngestEnabled reports whether the engine accepts mutations.
func (e *Engine) IngestEnabled() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ing != nil
}

// DeltaBytes returns the total unmerged overlay size across partitions.
func (e *Engine) DeltaBytes() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return int(e.overlayBytesLocked())
}

// LastSeq returns the last assigned WAL sequence number.
func (e *Engine) LastSeq() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.ing == nil {
		return 0
	}
	return e.lay.Seq()
}

// EnableIngest makes a built engine mutable: it locates current members
// for upsert/delete routing, opens the per-partition write-ahead logs
// (replaying any surviving suffix past each snapshot's watermark when
// cfg.Replay is set), and fixes the merge policy. It returns what the
// logs recovered; on a fresh engine without WAL the summary is all
// zeros.
func (e *Engine) EnableIngest(cfg IngestConfig) (*ReplaySummary, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ing != nil {
		return nil, fmt.Errorf("core: ingest already enabled")
	}
	st := &ingestState{cfg: cfg, pol: MergePolicy{MergeBytes: cfg.MergeBytes, MaxDeltaBytes: cfg.MaxDeltaBytes}}
	loc := make(map[int]int, e.dataset.Len())
	sum := &ReplaySummary{}
	for _, p := range e.parts {
		// A durable cross-partition move severed by media corruption can
		// leave the same id visible in two bases; keep the first
		// (lowest-pid) copy and mask the rest deterministically.
		for _, t := range p.Trajs {
			if _, dup := loc[t.ID]; dup {
				p.MaskBase(t.ID)
				sum.DupsMasked++
				continue
			}
			loc[t.ID] = p.ID
		}
	}
	if cfg.WAL != nil {
		start := time.Now()
		if err := e.openLogs(loc, cfg, sum); err != nil {
			closeLogs(e.parts, nil, "")
			return nil, err
		}
		sum.Duration = time.Since(start)
	}
	e.lay.Track(loc)
	e.ing = st
	if e.met != nil {
		e.met.replayObserve(sum)
		e.met.setDeltaBytes(e.overlayBytesLocked())
	}
	return sum, nil
}

// openLogs opens every partition's log and, when replaying, has its store
// re-apply the records past its watermark. Replay is partition-local
// (records are partition-local operations), so partitions recover
// independently in id order. Replayed ids are re-located in loc.
func (e *Engine) openLogs(loc map[int]int, cfg IngestConfig, sum *ReplaySummary) error {
	name := e.dataset.Name
	// Logs for partitions this engine does not have belong to a previous
	// epoch (a different partitioning of the same dataset): delete them.
	if ents, err := cfg.WAL.Scan(); err == nil {
		for _, en := range ents {
			if en.Dataset == name && en.Partition >= len(e.parts) {
				_ = cfg.WAL.Remove(en.Dataset, en.Partition)
			}
		}
	}
	replayed := make(map[int]struct{})
	for _, p := range e.parts {
		if !cfg.Replay {
			if err := cfg.WAL.Remove(name, p.ID); err != nil {
				return fmt.Errorf("core: ingest: reset partition %d wal: %w", p.ID, err)
			}
		}
		l, rep, err := cfg.WAL.Open(name, p.ID)
		if err != nil {
			return fmt.Errorf("core: ingest: partition %d wal: %w", p.ID, err)
		}
		sum.TruncatedBytes += rep.TruncatedBytes
		var logged []wal.Record
		if cfg.Replay {
			logged = rep.Records
		}
		recs, err := p.Recover(l, logged)
		if err != nil {
			l.Close()
			return fmt.Errorf("core: ingest: partition %d wal: %w", p.ID, err)
		}
		for _, r := range recs {
			replayed[r.ID] = struct{}{}
			sum.MaxSeq = max(sum.MaxSeq, r.Seq)
		}
		sum.Records += len(recs)
		if len(recs) > 0 {
			// A replayed insert must be inside its partition's boxes, or
			// global pruning and the kNN visit bound would miss it.
			e.lay.SetBounds(p.ID, p.View().Visible())
		}
		// A merge truncates the log through its snapshot's watermark, so
		// after a clean merge the log is empty: fresh seqs must exceed every
		// watermark as well as every logged record, or the next replay's
		// watermark skip would silently drop acked writes.
		e.lay.RaiseSeq(p.LastSeq())
	}
	e.mirror()
	if sum.Records > 0 {
		e.relocateReplayed(loc, replayed)
	}
	return nil
}

// relocateReplayed settles where each replayed id lives once every log
// has been applied. Replay restores each partition's own visible set
// exactly, but it runs in pid order, not seq order, so the location map
// it leaves is the last log's opinion: an id deleted from a high pid and
// re-inserted into a lower one would be unmapped by the older delete. So
// the map is re-derived here from what the partitions actually show. A
// live engine shows an id in one partition only; the one durable state
// that shows it in two is a crash between sealing a cutover's pieces and
// tombstoning the old partitions, where an old log's insert also sits in
// a piece's base (the base-vs-base masking in EnableIngest cannot see
// it). The two copies are the same version and the old (snapshot, log)
// pair is authoritative, so the overlay copy stays and the base copy is
// masked.
func (e *Engine) relocateReplayed(loc map[int]int, ids map[int]struct{}) {
	for id := range ids {
		delete(loc, id)
	}
	// At cold start the overlays hold replayed inserts and nothing else.
	views := make([]*View, len(e.parts))
	inOverlay := make(map[int]bool)
	for i, p := range e.parts {
		views[i] = p.View()
		for _, t := range views[i].Overlay {
			loc[t.ID], inOverlay[t.ID] = p.ID, true
		}
	}
	for i, p := range e.parts {
		v := views[i]
		for j, t := range v.Base {
			if _, ok := ids[t.ID]; !ok || !v.visible(j) {
				continue
			}
			if inOverlay[t.ID] {
				p.MaskBase(t.ID)
			} else {
				loc[t.ID] = p.ID
			}
		}
	}
}

// Insert adds (or, for an existing id, replaces) a trajectory. The
// partition's store appends the record to its WAL before the in-memory
// overlay changes; an append error leaves the visible state exactly as it
// was (see Layout.Unreserve for the sequence number). An upsert stays in the
// partition that already holds the id — the partition's endpoint MBRs are
// extended to keep global pruning sound — so the id's whole history lives
// in one log. New ids go where Route sends them. A partition whose delta
// the insert takes to MergePolicy.MergeBytes merges itself before Insert
// returns; a merge whose seal fails is counted and is not this write's
// error — the write is durable in the log and visible.
func (e *Engine) Insert(t *traj.T) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("core: insert: %w", err)
	}
	return e.mutate("insert", wal.Record{Op: wal.OpInsert, ID: t.ID, Points: t.Points}, func() int {
		return e.lay.Route(t)
	})
}

// Delete removes a trajectory by id, reporting whether it existed. Like
// Insert, the WAL record is durable before memory changes, and a partition
// at its backlog bound refuses it; deleting an unknown id is a no-op and
// appends nothing.
func (e *Engine) Delete(id int) (bool, error) {
	missing := false
	err := e.mutate("delete", wal.Record{Op: wal.OpDelete, ID: id}, func() int {
		pid, ok := e.lay.Locate(id)
		if !ok {
			missing = true
			return -1
		}
		return pid
	})
	return err == nil && !missing, err
}

// mutate applies one record to the partition route picks (-1: nothing to
// do): under the partition's append lock it reserves the record's sequence
// number, has the store log and apply it, and acks it to the layout under
// the same write lock the store's apply takes. A failed apply hands its
// number back (Layout.Unreserve): nothing reached the log. A merge the record
// made due runs once the append lock is released.
func (e *Engine) mutate(op string, r wal.Record, route func() int) error {
	st, p, s, wait, err := e.lockMutationTarget(op, route)
	if err != nil || p == nil {
		if err == nil && r.Op == wal.OpInsert {
			err = fmt.Errorf("core: insert: no live partition")
		}
		return err
	}
	// Holding s's append lock and e.mu.
	r.Seq = e.lay.Reserve()
	e.mu.Unlock()
	// The fsync runs off the engine lock: queries and mutations on other
	// partitions proceed during the disk wait; the append lock keeps this
	// partition's append order equal to its seq order. With metrics on,
	// the time from here to the publish is the store's record check and
	// log append.
	var applyStart time.Time
	if e.met != nil {
		applyStart = time.Now()
	}
	a, err := s.Apply(st.pol, []wal.Record{r}, func(apply func()) {
		var appended time.Duration
		if e.met != nil {
			appended = time.Since(applyStart)
		}
		wait += e.lockWrite()
		defer e.mu.Unlock()
		apply()
		if e.lay.Ack(p.ID, r) {
			e.mirror()
		}
		if e.met != nil {
			e.met.mutated(r.Op, e.overlayBytesLocked(), wait, appended)
		}
	})
	if err != nil {
		// The append lock is still held, so the number cannot race its own
		// partition's next append.
		e.mu.Lock()
		e.lay.Unreserve(r.Seq)
		e.mu.Unlock()
	}
	s.UnlockAppend()
	if err != nil {
		return fmt.Errorf("core: %s: partition %d: %w", op, p.ID, err)
	}
	if a.MergeDue {
		_, _ = e.merge(st, p, s)
	}
	return nil
}

// lockMutationTarget resolves the partition a mutation lands in and takes
// the ingest locks in order (its store's append lock, then e.mu): route
// under the read lock, lock the store, then re-check the route under the
// write lock — a concurrent mutation may have moved the id, or a cutover
// retired the partition, while we waited on the append lock, and appending
// to the wrong partition's log would fork the id's history across logs.
// route returns -1 to abort (no partition holds the id a delete names);
// the locks are then released and a nil partition returned. On success the
// caller holds s's append lock and e.mu and must release both. wait is the
// time spent acquiring e.mu's write side (lockWrite).
func (e *Engine) lockMutationTarget(op string, route func() int) (st *ingestState, p *Partition, s *Store, wait time.Duration, err error) {
	for {
		e.mu.RLock()
		st = e.ing
		if st == nil {
			e.mu.RUnlock()
			return nil, nil, nil, wait, fmt.Errorf("core: %s: ingest not enabled", op)
		}
		pid := route()
		if pid < 0 {
			e.mu.RUnlock()
			return nil, nil, nil, wait, nil
		}
		p = e.parts[pid]
		s = p.Store
		e.mu.RUnlock()
		s.LockAppend()
		wait += e.lockWrite()
		if route() == pid && p.Store == s {
			return st, p, s, wait, nil
		}
		e.mu.Unlock()
		s.UnlockAppend()
	}
}

// lockWrite takes e.mu's write side for a mutation and returns how long it
// waited — zero, and no clock read, without metrics.
func (e *Engine) lockWrite() time.Duration {
	if e.met == nil {
		e.mu.Lock()
		return 0
	}
	start := time.Now()
	e.mu.Lock()
	return time.Since(start)
}

// merge folds p's overlay (Store.Fold): the rebuilt base is installed under
// e.mu together with p's layout bounds recomputed over what it shows (deletes
// may shrink them), then — given a snapshot store — sealed.
// A seal that fails is counted and returned; the merge itself stands, and
// the intact log still reconstructs its state.
func (e *Engine) merge(st *ingestState, p *Partition, s *Store) (bool, error) {
	// A cutover may have retired p since the caller read s, orphaning s: a
	// fold of it must neither set p's bounds nor overwrite p's tombstone
	// image. No cutover starts while the fold holds s, so p is checked once,
	// at the install.
	live := false
	h := FoldHooks{Publish: func(_ *snap.Snapshot, install func()) {
		e.mu.Lock()
		defer e.mu.Unlock()
		install()
		if live = p.Store == s; !live {
			return
		}
		e.lay.SetBounds(p.ID, s.View().Visible())
		e.mirror()
		if e.met != nil {
			e.met.merges.Inc()
			e.met.setDeltaBytes(e.overlayBytesLocked())
		}
	}}
	if st.cfg.Snap != nil {
		h.Seal = func(img *snap.Snapshot) error {
			if !live {
				return errRetired
			}
			_, err := st.cfg.Snap.Save(e.named(img, e.dataset.Name, p.ID))
			if err != nil {
				e.met.sealFailed()
			}
			return err
		}
	}
	return s.Fold(h)
}

// errRetired keeps a fold that lost a race with a cutover from sealing.
var errRetired = errors.New("core: merge: partition retired by a cutover")

// MergePartition folds a partition's overlay into a fresh sealed base
// (Store.Fold, published and sealed by merge). It returns false when there
// was nothing to do or a merge is already in flight, and the seal's error
// when sealing failed — the merge stands and the WAL is not truncated.
func (e *Engine) MergePartition(pid int) (bool, error) {
	e.mu.RLock()
	st := e.ing
	if st == nil {
		e.mu.RUnlock()
		return false, fmt.Errorf("core: merge: ingest not enabled")
	}
	if pid < 0 || pid >= len(e.parts) {
		e.mu.RUnlock()
		return false, fmt.Errorf("core: merge: no partition %d", pid)
	}
	p := e.parts[pid]
	s := p.Store
	e.mu.RUnlock()
	did, err := e.merge(st, p, s)
	if err != nil {
		return did, fmt.Errorf("core: merge: partition %d: %w", pid, err)
	}
	return did, nil
}

// MergeAll merges every partition with outstanding overlay state,
// stopping at the first error.
func (e *Engine) MergeAll() error {
	e.mu.RLock()
	v := e.lay.View()
	e.mu.RUnlock()
	for pid, b := range v.Bounds {
		if b.Retired {
			continue
		}
		if _, err := e.MergePartition(pid); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) overlayBytesLocked() int64 {
	total := int64(0)
	for _, p := range e.parts {
		total += int64(p.OverlayBytes())
	}
	return total
}

// CloseIngest closes the partition logs (fsync'd appends mean there is
// nothing to flush). The engine remains queryable; further mutations
// are applied in memory only. It waits out a cutover, which opens logs.
func (e *Engine) CloseIngest() error {
	e.lay.cut.Lock()
	defer e.lay.cut.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	var first error
	for _, p := range e.parts {
		if err := p.CloseLog(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
