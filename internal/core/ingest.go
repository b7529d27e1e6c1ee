package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"dita/internal/geom"
	"dita/internal/snap"
	"dita/internal/traj"
	"dita/internal/trie"
	"dita/internal/wal"
)

// This file implements streaming ingest: a built engine becomes mutable
// by layering a per-partition overlay (delta + tombstones) over the
// sealed base, with every mutation appended to a partition-local
// write-ahead log before it touches memory. A partition's durable state
// is always the pair (newest sealed snapshot, WAL suffix past the
// snapshot's watermark); a crash at any point recovers by replaying that
// suffix onto the snapshot.
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

// ErrDeltaBacklog is returned by Insert when the target partition's
// unmerged overlay (delta plus any in-flight frozen delta) has reached
// IngestConfig.MaxDeltaBytes. The network-mode worker maps it to its
// overload signal so backpressure propagates through the admit layer.
var ErrDeltaBacklog = errors.New("core: ingest: partition delta backlog at bound")

// Delta is the mutable overlay of one partition: trajectories inserted
// since the partition's base was last merged, with verification metadata
// precomputed exactly like base members so the filter cascade treats
// overlay members identically. Exported for the network-mode worker,
// which manages its own partition storage but shares the engine's
// overlay semantics. Not safe for concurrent use; callers serialize
// access (the engine's mutation lock, the worker's partition lock).
type Delta struct {
	Live  []*traj.T
	Meta  []VerifyMeta
	Bytes int
}

// Insert appends a trajectory to the overlay.
func (d *Delta) Insert(t *traj.T) {
	d.Live = append(d.Live, t)
	d.Meta = append(d.Meta, newTrajMeta(t))
	d.Bytes += t.Bytes()
}

// Remove deletes the overlay's entry for id, reporting whether one
// existed. IDs are unique within an overlay (an upsert removes the old
// entry before adding the new one).
func (d *Delta) Remove(id int) bool {
	for i, t := range d.Live {
		if t.ID == id {
			d.Bytes -= t.Bytes()
			d.Live = append(d.Live[:i], d.Live[i+1:]...)
			d.Meta = append(d.Meta[:i], d.Meta[i+1:]...)
			return true
		}
	}
	return false
}

// Has reports whether the overlay holds an entry for id.
func (d *Delta) Has(id int) bool {
	for _, t := range d.Live {
		if t.ID == id {
			return true
		}
	}
	return false
}

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
	// MergeBytes is the delta size (bytes of live trajectories) above
	// which a partition is merge-eligible; <= 0 defaults to 1 MiB.
	MergeBytes int
	// MaxDeltaBytes, when > 0, bounds a partition's unmerged backlog
	// (delta + frozen): Insert fails with ErrDeltaBacklog at the bound.
	MaxDeltaBytes int
	// AutoMerge runs MergePartition synchronously inside Insert whenever
	// the threshold is crossed. The network-mode worker leaves this off
	// and schedules merges on a background goroutine instead.
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

// mergeFoldHook, when non-nil, runs during MergePartition's off-lock fold
// window, after rotation and before the rebuilt base is installed. It
// exists so tests can deterministically exercise the frozen-overlay state
// (queries and further mutations racing a merge). Never set outside
// tests.
var mergeFoldHook func(e *Engine, pid int)

// locEntry locates a trajectory's current visible version.
type locEntry struct {
	pid int
	t   *traj.T
}

// ingestState is the engine-wide mutable-ingest bookkeeping, nil until
// EnableIngest. Guarded by Engine.mu.
type ingestState struct {
	cfg IngestConfig
	loc map[int]locEntry // trajectory id -> current version
	// seq is the last assigned WAL sequence number. A failed append burns
	// its number (a retry gets a fresh, higher one), so per-log sequences
	// may gap but never regress or reorder.
	seq uint64
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
	total := 0
	for _, p := range e.parts {
		total += p.overlayBytes()
	}
	return total
}

// LastSeq returns the last assigned WAL sequence number.
func (e *Engine) LastSeq() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.ing == nil {
		return 0
	}
	return e.ing.seq
}

// EnableIngest makes a built engine mutable: it indexes current members
// for upsert/delete routing, opens the per-partition write-ahead logs
// (replaying any surviving suffix past each snapshot's watermark when
// cfg.Replay is set), and wires the merge policy. It returns what the
// logs recovered; on a fresh engine without WAL the summary is all
// zeros.
func (e *Engine) EnableIngest(cfg IngestConfig) (*ReplaySummary, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ing != nil {
		return nil, fmt.Errorf("core: ingest already enabled")
	}
	if cfg.MergeBytes <= 0 {
		cfg.MergeBytes = 1 << 20
	}
	st := &ingestState{cfg: cfg, loc: make(map[int]locEntry, e.dataset.Len())}
	sum := &ReplaySummary{}
	for _, p := range e.parts {
		p.baseIdx = make(map[int]int, len(p.Trajs))
		for i, t := range p.Trajs {
			p.baseIdx[t.ID] = i
		}
		if p.tomb == nil {
			p.tomb = make(map[int]bool)
		}
		if p.delta == nil {
			p.delta = &Delta{}
		}
		// A durable cross-partition move severed by media corruption can
		// leave the same id visible in two bases; keep the first
		// (lowest-pid) copy and mask the rest deterministically.
		for _, t := range p.Trajs {
			if _, dup := st.loc[t.ID]; dup {
				p.tomb[t.ID] = true
				sum.DupsMasked++
				continue
			}
			st.loc[t.ID] = locEntry{pid: p.ID, t: t}
		}
	}
	if cfg.WAL != nil {
		start := time.Now()
		if err := e.openLogs(st, cfg, sum); err != nil {
			closeLogs(e.parts, nil, "")
			return nil, err
		}
		sum.Duration = time.Since(start)
	}
	e.ing = st
	if e.met != nil {
		e.met.replayObserve(sum)
		e.met.setDeltaBytes(e.overlayBytesLocked())
	}
	return sum, nil
}

// openLogs opens every partition's log and, when replaying, re-applies
// the records past each snapshot's watermark. Replay is partition-local
// (records are partition-local operations), so partitions recover
// independently in id order.
func (e *Engine) openLogs(st *ingestState, cfg IngestConfig, sum *ReplaySummary) error {
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
		p.wlog = l
		sum.TruncatedBytes += rep.TruncatedBytes
		if n := l.LastSeq(); n > st.seq {
			st.seq = n
		}
		// A merge truncates the log through its snapshot's watermark, so
		// after a clean merge the log is empty and LastSeq alone would
		// restart the counter below numbers already burned. Fresh seqs must
		// exceed every watermark, or the next replay's watermark skip would
		// silently drop acked writes.
		if p.watermark > st.seq {
			st.seq = p.watermark
		}
		if !cfg.Replay {
			continue
		}
		for _, r := range rep.Records {
			if r.Seq <= p.watermark {
				continue // already folded into the snapshot base
			}
			replayed[r.ID] = struct{}{}
			switch r.Op {
			case wal.OpInsert:
				e.applyInsertLocal(st, p, &traj.T{ID: r.ID, Points: r.Points})
			case wal.OpDelete:
				e.applyDeleteLocal(st, p, r.ID)
			}
			sum.Records++
			if r.Seq > sum.MaxSeq {
				sum.MaxSeq = r.Seq
			}
		}
	}
	if sum.Records > 0 {
		e.relocateReplayed(st, replayed)
		e.buildGlobalIndex()
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
func (e *Engine) relocateReplayed(st *ingestState, ids map[int]struct{}) {
	for id := range ids {
		delete(st.loc, id)
	}
	// At cold start the overlays hold replayed inserts and nothing else.
	for _, p := range e.parts {
		for _, t := range p.delta.Live {
			st.loc[t.ID] = locEntry{pid: p.ID, t: t}
		}
	}
	for id := range ids {
		_, inDelta := st.loc[id]
		for _, p := range e.parts {
			i, ok := p.baseIdx[id]
			if !ok || p.maskedBase(id) {
				continue
			}
			if inDelta {
				p.tomb[id] = true
			} else {
				st.loc[id] = locEntry{pid: p.ID, t: p.Trajs[i]}
			}
		}
	}
}

// Insert adds (or, for an existing id, replaces) a trajectory. The
// record is durably appended to the owning partition's WAL before the
// in-memory overlay changes; an append error leaves the visible state
// exactly as it was (see unreserveSeq for the sequence number). An
// upsert stays in the partition that already holds the id
// — the partition's endpoint MBRs are extended to keep global pruning
// sound — so the id's whole history lives in one log. New ids are routed
// to the partition whose endpoint MBRs are nearest the trajectory's
// endpoints.
func (e *Engine) Insert(t *traj.T) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("core: insert: %w", err)
	}
	st, p, err := e.lockMutationTarget("insert", func(st *ingestState) *Partition {
		if le, ok := st.loc[t.ID]; ok {
			return e.parts[le.pid]
		}
		return e.routePartition(t)
	})
	if err != nil {
		return err
	}
	// Holding p.imu and e.mu.
	if st.cfg.MaxDeltaBytes > 0 && p.overlayBytes() >= st.cfg.MaxDeltaBytes {
		e.mu.Unlock()
		p.imu.Unlock()
		return fmt.Errorf("core: insert: partition %d: %w", p.ID, ErrDeltaBacklog)
	}
	seq := st.seq + 1
	st.seq = seq
	wlog := p.wlog
	e.mu.Unlock()
	// The fsync runs off the engine lock: queries and mutations on other
	// partitions proceed during the disk wait; p.imu keeps this
	// partition's append order equal to its seq order.
	if wlog != nil {
		if err := wlog.Append(wal.Record{Seq: seq, Op: wal.OpInsert, ID: t.ID, Points: t.Points}); err != nil {
			e.unreserveSeq(st, seq)
			p.imu.Unlock()
			return fmt.Errorf("core: insert: wal: %w", err)
		}
	}
	e.mu.Lock()
	if e.applyInsertLocal(st, p, t) {
		e.buildGlobalIndex()
	}
	if e.met != nil {
		e.met.inserts.Inc()
		e.met.setDeltaBytes(e.overlayBytesLocked())
	}
	mergeNow := st.cfg.AutoMerge && p.frozen == nil && p.delta.Bytes >= st.cfg.MergeBytes
	pid := p.ID
	e.mu.Unlock()
	p.imu.Unlock()
	if mergeNow {
		if _, err := e.MergePartition(pid); err != nil {
			return fmt.Errorf("core: insert: merge partition %d: %w", pid, err)
		}
	}
	return nil
}

// Delete removes a trajectory by id, reporting whether it existed. Like
// Insert, the WAL record is durable before memory changes; deleting an
// unknown id is a no-op and appends nothing.
func (e *Engine) Delete(id int) (bool, error) {
	var missing bool
	st, p, err := e.lockMutationTarget("delete", func(st *ingestState) *Partition {
		le, ok := st.loc[id]
		if !ok {
			missing = true
			return nil
		}
		return e.parts[le.pid]
	})
	if err != nil {
		return false, err
	}
	if missing {
		return false, nil
	}
	seq := st.seq + 1
	st.seq = seq
	wlog := p.wlog
	e.mu.Unlock()
	if wlog != nil {
		if err := wlog.Append(wal.Record{Seq: seq, Op: wal.OpDelete, ID: id}); err != nil {
			e.unreserveSeq(st, seq)
			p.imu.Unlock()
			return false, fmt.Errorf("core: delete: wal: %w", err)
		}
	}
	e.mu.Lock()
	e.applyDeleteLocal(st, p, id)
	if e.met != nil {
		e.met.deletes.Inc()
		e.met.setDeltaBytes(e.overlayBytesLocked())
	}
	e.mu.Unlock()
	p.imu.Unlock()
	return true, nil
}

// unreserveSeq returns a reserved sequence number after a failed append.
// When nothing was reserved past it the counter rolls back (a sequential
// caller observes no state change at all); otherwise the number is
// burned — gaps in a log are fine, regressions and reorders are not.
// Caller still holds the partition's imu, so the number cannot race its
// own partition's next append.
func (e *Engine) unreserveSeq(st *ingestState, seq uint64) {
	e.mu.Lock()
	if st.seq == seq {
		st.seq = seq - 1
	}
	e.mu.Unlock()
}

// lockMutationTarget resolves the partition a mutation lands in and takes
// the ingest locks in order (the partition's imu, then e.mu): route under
// the read lock, lock the partition, then re-check the route under the
// write lock — a concurrent mutation may have moved the id while we
// waited on imu, and appending to the wrong partition's log would fork
// the id's history across logs. route returns nil to abort (id unknown
// to Delete); the locks are then released and (nil, nil, nil) returned.
// On success the caller holds p.imu and e.mu and must release both.
func (e *Engine) lockMutationTarget(op string, route func(*ingestState) *Partition) (*ingestState, *Partition, error) {
	for {
		e.mu.RLock()
		st := e.ing
		if st == nil {
			e.mu.RUnlock()
			return nil, nil, fmt.Errorf("core: %s: ingest not enabled", op)
		}
		p := route(st)
		e.mu.RUnlock()
		if p == nil {
			return nil, nil, nil
		}
		p.imu.Lock()
		e.mu.Lock()
		if again := route(st); again == p {
			return st, p, nil
		}
		e.mu.Unlock()
		p.imu.Unlock()
	}
}

// routePartition picks the partition for a brand-new trajectory: the one
// whose endpoint MBRs are jointly nearest the trajectory's endpoints
// (ties to the lower id). This is the ingest-time analogue of the STR
// placement the base partitioning computed in bulk.
func (e *Engine) routePartition(t *traj.T) *Partition {
	var best *Partition
	bestD := math.Inf(1)
	for _, p := range e.parts {
		if p.retired {
			continue
		}
		if best == nil {
			best = p
		}
		d := p.MBRf.MinDist(t.First()) + p.MBRl.MinDist(t.Last())
		if d < bestD {
			best, bestD = p, d
		}
	}
	return best
}

// applyInsertLocal applies an upsert to one partition's overlay: the
// partition's old visible copy of the id (delta, frozen or base) is
// removed or masked, the new version joins the delta, and the location
// map is updated, and the partition's endpoint MBRs are extended to cover
// the new version — without that, global pruning and the kNN visit bound
// would be unsound for it. Reports whether a box grew, in which case the
// caller rebuilds the global index. Used both by live Insert and by WAL
// replay — the two must stay byte-for-byte identical for recovery to be
// exact.
func (e *Engine) applyInsertLocal(st *ingestState, p *Partition, t *traj.T) (grew bool) {
	if !p.delta.Remove(t.ID) {
		if p.frozen != nil && p.frozen.Has(t.ID) && !p.tomb[t.ID] {
			p.tomb[t.ID] = true
		} else if _, inBase := p.baseIdx[t.ID]; inBase && !p.tomb[t.ID] && !p.frozenTomb[t.ID] {
			p.tomb[t.ID] = true
		}
	}
	p.delta.Insert(t)
	st.loc[t.ID] = locEntry{pid: p.ID, t: t}
	nf, nl := p.MBRf.Extend(t.First()), p.MBRl.Extend(t.Last())
	grew = nf != p.MBRf || nl != p.MBRl
	p.MBRf, p.MBRl = nf, nl
	return grew
}

// applyDeleteLocal applies a delete to one partition's overlay. The
// location map entry is cleared only when it points at this partition:
// during replay another partition may already hold a newer version.
func (e *Engine) applyDeleteLocal(st *ingestState, p *Partition, id int) bool {
	switch {
	case p.delta.Remove(id):
	case p.frozen != nil && p.frozen.Has(id) && !p.tomb[id]:
		p.tomb[id] = true
	default:
		_, inBase := p.baseIdx[id]
		if !inBase || p.tomb[id] || p.frozenTomb[id] {
			return false
		}
		p.tomb[id] = true
	}
	if le, ok := st.loc[id]; ok && le.pid == p.ID {
		delete(st.loc, id)
	}
	return true
}

// overlayBytes is the partition's unmerged backlog: live delta plus any
// frozen delta still being folded.
func (p *Partition) overlayBytes() int {
	n := 0
	if p.delta != nil {
		n += p.delta.Bytes
	}
	if p.frozen != nil {
		n += p.frozen.Bytes
	}
	return n
}

func (e *Engine) overlayBytesLocked() int64 {
	total := int64(0)
	for _, p := range e.parts {
		total += int64(p.overlayBytes())
	}
	return total
}

// maskedBase reports whether the base member with this id is hidden by
// the overlay (deleted, or superseded by a newer delta/frozen version).
func (p *Partition) maskedBase(id int) bool {
	return p.tomb[id] || p.frozenTomb[id]
}

// hasOverlay reports whether the partition has any overlay state a query
// must consult. False is the common fast path: a never-mutated partition
// pays nothing.
func (p *Partition) hasOverlay() bool {
	if p.delta != nil && len(p.delta.Live) > 0 {
		return true
	}
	if p.frozen != nil && len(p.frozen.Live) > 0 {
		return true
	}
	return len(p.tomb) > 0 || len(p.frozenTomb) > 0
}

// view captures the partition for one query: the base as it stands, the
// masks, and behind the base the frozen members not since superseded, then
// the delta. Callers hold the engine's read lock for as long as they use
// the view — that is what lets it alias the partition's slices, the
// delta's included, instead of copying them: nothing a view points at
// changes while any reader is in.
func (p *Partition) view() *View {
	v := &View{Index: p.Index, Base: p.Trajs, BaseMeta: p.meta, part: p}
	if !p.hasOverlay() {
		return v
	}
	v.Masked = p.maskedBase
	if p.frozen != nil {
		for i, t := range p.frozen.Live {
			if !p.tomb[t.ID] {
				v.Overlay, v.OverlayMeta = append(v.Overlay, t), append(v.OverlayMeta, p.frozen.Meta[i])
			}
		}
	}
	if p.delta != nil {
		if v.Overlay == nil {
			v.Overlay, v.OverlayMeta = p.delta.Live, p.delta.Meta
		} else {
			v.Overlay, v.OverlayMeta = append(v.Overlay, p.delta.Live...), append(v.OverlayMeta, p.delta.Meta...)
		}
	}
	return v
}

// MergePartition folds a partition's overlay into a fresh sealed base:
// the delta is rotated into a frozen snapshot of itself, the base trie
// is rebuilt over (base − pre-rotation masks) ∪ frozen off-lock while
// queries and mutations proceed against the overlay, and the result is
// installed with exact (shrunk) endpoint MBRs. When the engine has a
// snapshot store the new base is sealed (temp → fsync → rename) with the
// rotation watermark in its meta, and only after a successful seal is
// the partition's WAL truncated through that watermark. It returns false
// when there was nothing to do or a merge is already in flight.
//
// Crash safety: every step before the seal leaves the old (snapshot,
// WAL) pair authoritative; a crash between seal and truncation replays a
// suffix the new snapshot already contains, which the watermark skip
// makes idempotent.
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
	e.mu.RUnlock()
	// Rotation holds the partition's ingest lock (imu before e.mu, the
	// mutation order) so no append is in flight: every record in the log
	// is applied, and every applied record is in the log.
	p.imu.Lock()
	e.mu.Lock()
	if p.frozen != nil {
		e.mu.Unlock()
		p.imu.Unlock()
		return false, nil // merge already in flight
	}
	if len(p.delta.Live) == 0 && len(p.tomb) == 0 {
		e.mu.Unlock()
		p.imu.Unlock()
		return false, nil
	}
	// Rotation: the live delta freezes, mutations start a new delta, and
	// the current masks become the fold set. A watermark taken from the
	// partition's log (quiesced by imu) marks exactly what the fold will
	// contain.
	p.frozen, p.delta = p.delta, &Delta{}
	p.frozenTomb, p.tomb = p.tomb, make(map[int]bool)
	watermark := p.watermark
	if p.wlog != nil {
		if n := p.wlog.LastSeq(); n > watermark {
			watermark = n
		}
	} else if st.seq > watermark {
		watermark = st.seq
	}
	base, frozen, fold := p.Trajs, p.frozen, p.frozenTomb
	e.mu.Unlock()
	p.imu.Unlock()

	if mergeFoldHook != nil {
		mergeFoldHook(e, pid)
	}

	// Off-lock fold and rebuild. base is immutable; frozen.Live and fold
	// are never mutated after rotation (post-rotation deletes/upserts
	// only touch p.tomb and the new delta).
	merged := make([]*traj.T, 0, len(base)+len(frozen.Live))
	for _, t := range base {
		if !fold[t.ID] {
			merged = append(merged, t)
		}
	}
	merged = append(merged, frozen.Live...)
	idx := trie.Build(merged, e.opts.Trie)
	meta := make([]trajMeta, len(merged))
	for i, t := range merged {
		meta[i] = newTrajMeta(t)
	}

	e.mu.Lock()
	p.Trajs, p.Index, p.meta = merged, idx, meta
	p.baseIdx = make(map[int]int, len(merged))
	p.bytes = 0
	for i, t := range merged {
		p.baseIdx[t.ID] = i
		p.bytes += t.Bytes()
	}
	p.frozen, p.frozenTomb = nil, nil
	p.watermark = watermark
	// Exact MBR recompute (deletes may shrink them), re-extended by the
	// post-rotation delta, then the global R-trees pick up the change.
	p.MBRf, p.MBRl = geom.EmptyMBR(), geom.EmptyMBR()
	for _, t := range merged {
		p.MBRf = p.MBRf.Extend(t.First())
		p.MBRl = p.MBRl.Extend(t.Last())
	}
	for _, t := range p.delta.Live {
		p.MBRf = p.MBRf.Extend(t.First())
		p.MBRl = p.MBRl.Extend(t.Last())
	}
	e.buildGlobalIndex()
	var seal *snap.Snapshot
	if st.cfg.Snap != nil {
		seal = e.ExportSnapshot(e.dataset.Name, p)
		seal.Watermark = watermark
	}
	if e.met != nil {
		e.met.merges.Inc()
		e.met.setDeltaBytes(e.overlayBytesLocked())
	}
	wlog := p.wlog
	e.mu.Unlock()

	if seal != nil {
		if _, err := st.cfg.Snap.Save(seal); err != nil {
			// The merge itself stands; the old snapshot plus the intact
			// WAL still reconstruct this state, so the log must not be
			// truncated.
			return true, fmt.Errorf("core: merge: seal partition %d: %w", pid, err)
		}
		if wlog != nil {
			if err := wlog.TruncateThrough(watermark); err != nil {
				return true, fmt.Errorf("core: merge: truncate partition %d wal: %w", pid, err)
			}
		}
	}
	return true, nil
}

// MergeAll merges every partition with outstanding overlay state,
// stopping at the first error.
func (e *Engine) MergeAll() error {
	for pid, p := range e.parts {
		if p.retired {
			continue
		}
		if _, err := e.MergePartition(pid); err != nil {
			return err
		}
	}
	return nil
}

// CloseIngest closes the partition logs (fsync'd appends mean there is
// nothing to flush). The engine remains queryable; further mutations
// fail at the append.
func (e *Engine) CloseIngest() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var first error
	for _, p := range e.parts {
		if p.wlog != nil {
			if err := p.wlog.Close(); err != nil && first == nil {
				first = err
			}
			p.wlog = nil
		}
	}
	return first
}
