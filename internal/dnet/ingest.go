// Streaming ingest for the network mode: the coordinator routes single-
// trajectory upserts and deletes to the owning partition by the global
// index, assigns each mutation a partition-scoped sequence number, and
// fans it out to every replica; a worker appends the record to the
// partition's write-ahead log (fsync) before touching memory, so a
// positive ack means the write survives any crash. Mutations accumulate
// in a per-partition delta overlay every query path folds in; when the
// overlay outgrows the merge threshold the worker rebuilds the base
// (trie and all), seals a snapshot carrying the new watermark, and only
// then truncates the log. A delta held at the backpressure bound rejects
// batches with an overloaded error instead of queueing without bound.
package dnet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/rpc"
	"strings"
	"sync"

	"dita/internal/core"
	"dita/internal/rtree"
	"dita/internal/snap"
	"dita/internal/traj"
	"dita/internal/trie"
	"dita/internal/wal"
)

// overloadedPrefix starts the application error Worker.Ingest returns
// when the partition's delta buffer is at the backpressure bound. It
// crosses the wire as the rpc.ServerError string; the coordinator's
// isOverloaded matches it with an exact prefix check (the
// peerUnreachablePrefix pattern) and surfaces ErrOverloaded so callers
// can back off and retry — keep the two in sync when rewording.
const overloadedPrefix = "dnet: ingest overloaded: "

const (
	// defaultMergeBytes is the delta size that triggers folding the
	// overlay into a fresh base when Worker.MergeBytes is unset.
	defaultMergeBytes = 1 << 20
	// defaultMaxDeltaBytes is the backpressure bound when
	// Worker.MaxDeltaBytes is unset: batches arriving at or past it are
	// rejected until a merge drains the buffer.
	defaultMaxDeltaBytes = 8 << 20
)

// view captures the partition for one query: the base slices as they are
// (never mutated in place — a merge installs fresh ones) plus private
// copies of the delta and the tombstones, taken under the overlay lock.
// The mutual exclusion during the copy makes the in-place overlay mutation
// on the ingest path safe for the rest of the query's life.
func (p *workerPartition) view() *core.View {
	p.omu.RLock()
	defer p.omu.RUnlock()
	v := &core.View{Index: p.index, Base: p.trajs, BaseMeta: p.meta}
	if len(p.tomb) > 0 {
		tomb := make(map[int]bool, len(p.tomb))
		for id := range p.tomb {
			tomb[id] = true
		}
		v.Masked = func(id int) bool { return tomb[id] }
	}
	if len(p.delta) > 0 {
		v.Overlay = append([]*traj.T(nil), p.delta...)
		v.OverlayMeta = append([]core.VerifyMeta(nil), p.deltaMeta...)
	}
	return v
}

// DeltaBytes returns the partition's current un-merged delta size.
func (p *workerPartition) DeltaBytes() int {
	p.omu.RLock()
	defer p.omu.RUnlock()
	return p.deltaBytes
}

// baseStats returns the base footprint under the overlay lock (a merge
// replaces both fields together).
func (p *workerPartition) baseStats() (trajs, indexBytes int) {
	p.omu.RLock()
	defer p.omu.RUnlock()
	return len(p.trajs), p.index.SizeBytes()
}

// identity returns the partition's content identity and durability
// flags, which merges rewrite under the overlay lock.
func (p *workerPartition) identity() (fp uint64, snapped bool, snapBytes int64, lastSeq uint64) {
	p.omu.RLock()
	defer p.omu.RUnlock()
	return p.fingerprint, p.snapped, p.snapBytes, p.lastSeq
}

// closeLog detaches and closes the partition's WAL. Serialized against
// appends by the overlay lock: a racing Ingest either appended before
// the close (the record is durable and applied) or fails its append
// afterwards (the batch is never acked) — exactly crash semantics.
func (p *workerPartition) closeLog() {
	p.omu.Lock()
	l := p.wlog
	p.wlog = nil
	p.omu.Unlock()
	if l != nil {
		l.Close()
	}
}

// ensureBaseIDsLocked lazily builds the base id set the tombstone
// decisions need. Built once per base epoch; a merge clears it.
func (p *workerPartition) ensureBaseIDsLocked() {
	if p.baseIDs != nil {
		return
	}
	p.baseIDs = make(map[int]bool, len(p.trajs))
	for _, t := range p.trajs {
		p.baseIDs[t.ID] = true
	}
}

// applyLocked folds one logged record into the overlay. Caller holds
// the overlay write lock (or owns the partition exclusively, as WAL
// replay before Serve does). An insert is an upsert by id: it replaces
// a live delta member in place, and tombstones the base member it
// supersedes. A delete removes the delta member (swap-remove) and
// tombstones the base member. Deletes do not grow deltaBytes — the
// buffer tracks payload held, not log volume.
func (p *workerPartition) applyLocked(r WireRecord) {
	switch r.Op {
	case wal.OpInsert:
		t := &traj.T{ID: r.ID, Points: r.Points}
		if i, ok := p.deltaIdx[r.ID]; ok {
			p.deltaBytes += t.Bytes() - p.delta[i].Bytes()
			p.delta[i] = t
			p.deltaMeta[i] = core.NewVerifyMeta(t, 0)
			return
		}
		if p.deltaIdx == nil {
			p.deltaIdx = map[int]int{}
		}
		p.deltaIdx[r.ID] = len(p.delta)
		p.delta = append(p.delta, t)
		p.deltaMeta = append(p.deltaMeta, core.NewVerifyMeta(t, 0))
		p.deltaBytes += t.Bytes()
		p.ensureBaseIDsLocked()
		if p.baseIDs[r.ID] {
			if p.tomb == nil {
				p.tomb = map[int]bool{}
			}
			p.tomb[r.ID] = true
		}
	case wal.OpDelete:
		if i, ok := p.deltaIdx[r.ID]; ok {
			p.deltaBytes -= p.delta[i].Bytes()
			last := len(p.delta) - 1
			moved := p.delta[last]
			p.delta[i] = moved
			p.deltaMeta[i] = p.deltaMeta[last]
			p.delta = p.delta[:last]
			p.deltaMeta = p.deltaMeta[:last]
			delete(p.deltaIdx, r.ID)
			if i != last {
				p.deltaIdx[moved.ID] = i
			}
		}
		p.ensureBaseIDsLocked()
		if p.baseIDs[r.ID] {
			if p.tomb == nil {
				p.tomb = map[int]bool{}
			}
			p.tomb[r.ID] = true
		}
	}
}

// Ingest implements the streamed-mutation RPC: WAL append (fsync)
// strictly before the in-memory apply, so an acked batch is durable at
// every instant afterwards. Records at or below the partition's dedupe
// floor are skipped — a retransmission of an acked batch is a cheap
// no-op, which is what makes rpc-layer retries safe. The floor is sound
// only because the coordinator serializes a partition's writes end to
// end (dispatchedDataset.pmu): first delivery is always in seq order, so
// anything at or below the floor is a retransmission, never a fresh
// write that lost a race. A delta at the backpressure bound rejects the
// whole batch with the overloaded error and kicks a background merge so
// a later retry finds room.
func (s *workerService) Ingest(args *IngestArgs, reply *IngestReply) (err error) {
	if !s.w.beginRPC() {
		return errDraining
	}
	defer s.w.endRPC()
	defer rpcRecover("ingest", &err)
	s.w.ingestCalls.Add(1)
	p, err := s.partition(args.Dataset, args.Partition)
	if err != nil {
		return err
	}
	bytes := 0
	for _, r := range args.Records {
		switch r.Op {
		case wal.OpInsert:
			if len(r.Points) == 0 {
				return fmt.Errorf("dnet: ingest %s/%d: insert %d has no points",
					args.Dataset, args.Partition, r.ID)
			}
		case wal.OpDelete:
		default:
			return fmt.Errorf("dnet: ingest %s/%d: unknown op %d",
				args.Dataset, args.Partition, r.Op)
		}
		bytes += 16*len(r.Points) + 16
	}
	s.w.bytesIn.Add(int64(bytes))

	mergeAt := s.w.MergeBytes
	if mergeAt <= 0 {
		mergeAt = defaultMergeBytes
	}
	maxDelta := s.w.MaxDeltaBytes
	if maxDelta <= 0 {
		maxDelta = defaultMaxDeltaBytes
	}

	p.omu.Lock()
	floor := p.lastSeq
	if p.watermark > floor {
		floor = p.watermark
	}
	fresh := make([]WireRecord, 0, len(args.Records))
	for _, r := range args.Records {
		if r.Seq <= floor {
			reply.Deduped++
			continue
		}
		floor = r.Seq
		fresh = append(fresh, r)
	}
	if reply.Deduped > 0 {
		s.w.ingestDeduped.Add(int64(reply.Deduped))
	}
	if len(fresh) == 0 {
		reply.LastSeq = p.lastSeq
		reply.DeltaBytes = p.deltaBytes
		p.omu.Unlock()
		return nil
	}
	if p.deltaBytes >= maxDelta {
		deltaBytes := p.deltaBytes
		p.omu.Unlock()
		s.w.ingestRejected.Add(1)
		// Kick a merge so the buffer drains; the caller's retry after
		// backoff then finds room. mergePartition serializes with itself.
		go s.w.mergePartition(args.Dataset, args.Partition, p)
		return fmt.Errorf("%spartition %s/%d delta %d bytes (max %d)",
			overloadedPrefix, args.Dataset, args.Partition, deltaBytes, maxDelta)
	}
	if p.wlog != nil {
		recs := make([]wal.Record, len(fresh))
		for i, r := range fresh {
			recs[i] = wal.Record{Seq: r.Seq, Op: r.Op, ID: r.ID, Points: r.Points}
		}
		if err := p.wlog.Append(recs...); err != nil {
			// Nothing is applied: the log restored its prior valid length
			// (or holds a torn tail the next Open truncates), memory never
			// saw the batch, and the caller gets no ack.
			p.omu.Unlock()
			return fmt.Errorf("dnet: ingest %s/%d: wal append: %w",
				args.Dataset, args.Partition, err)
		}
	}
	for _, r := range fresh {
		p.applyLocked(r)
		if r.Seq > p.lastSeq {
			p.lastSeq = r.Seq
		}
	}
	reply.Applied = len(fresh)
	reply.LastSeq = p.lastSeq
	reply.DeltaBytes = p.deltaBytes
	needMerge := p.deltaBytes >= mergeAt
	p.omu.Unlock()
	s.w.ingestRecords.Add(int64(len(fresh)))
	if needMerge {
		if s.w.mergePartition(args.Dataset, args.Partition, p) {
			reply.Merged = true
			reply.DeltaBytes = p.DeltaBytes()
		}
	}
	return nil
}

// mergePartition folds the partition's overlay into a fresh base:
// visible members (base minus tombstones, plus delta) get a rebuilt
// trie and verification metadata, installed as new slices so captured
// views stay consistent; then the new base is sealed as a snapshot
// carrying watermark = lastSeq, and only after a successful seal is the
// WAL truncated through that watermark. If the seal fails the log keeps
// its full suffix past the old on-disk watermark — replay still
// reconstructs exactly this state, the log is merely longer. Merges on
// one partition are serialized (mergeMu) so a slow seal can never
// overwrite a newer image and then truncate the log past it.
func (w *Worker) mergePartition(dataset string, pid int, p *workerPartition) bool {
	p.mergeMu.Lock()
	defer p.mergeMu.Unlock()
	p.omu.Lock()
	if len(p.delta) == 0 && len(p.tomb) == 0 {
		p.omu.Unlock()
		return false
	}
	visible := make([]*traj.T, 0, len(p.trajs)+len(p.delta))
	for _, t := range p.trajs {
		if !p.tomb[t.ID] {
			visible = append(visible, t)
		}
	}
	visible = append(visible, p.delta...)
	idx := trie.Build(visible, trieConfig(p.opts))
	meta := make([]core.VerifyMeta, len(visible))
	for i, t := range visible {
		meta[i] = core.NewVerifyMeta(t, 0)
	}
	fp := snap.Fingerprint(p.opts, visible)
	opts := p.opts
	p.trajs, p.index, p.meta = visible, idx, meta
	p.fingerprint = fp
	p.delta, p.deltaMeta, p.deltaIdx = nil, nil, nil
	p.tomb, p.baseIDs = nil, nil
	p.deltaBytes = 0
	p.watermark = p.lastSeq
	watermark := p.watermark
	wlog := p.wlog
	p.snapped = false
	p.snapBytes = 0
	p.omu.Unlock()
	w.merges.Add(1)
	if w.SnapStore == nil {
		return true
	}
	// The partition may have been unloaded while we folded; sealing now
	// would resurrect a snapshot the coordinator rolled back. The check
	// alone is racy — Unload can run right after it — but Unload (and the
	// epoch resets in Load/Replicate) waits on this partition's mergeMu
	// before touching the durable pair, so a teardown that loses the race
	// deletes whatever this merge writes once it finishes.
	w.mu.RLock()
	installed := w.parts[partKey{dataset, pid}] == p
	w.mu.RUnlock()
	if !installed {
		return true
	}
	sn := &snap.Snapshot{
		Dataset: dataset, Partition: pid, Opts: opts,
		Trajs: visible, Index: idx, Watermark: watermark,
	}
	size, err := w.SnapStore.Save(sn)
	if err != nil {
		w.snapWriteErr.Add(1)
		return true
	}
	w.snapWriteOK.Add(1)
	p.omu.Lock()
	if p.fingerprint == fp {
		p.snapped = true
		p.snapBytes = size
	}
	p.omu.Unlock()
	if wlog != nil {
		// Records past the watermark (ingested during the seal) survive
		// the truncation; they are exactly the ones the new snapshot does
		// not cover.
		wlog.TruncateThrough(watermark)
	}
	return true
}

// --- coordinator side ---

// isOverloaded detects the worker-side backpressure signal. Only an
// rpc.ServerError that starts with the exact prefix Worker.Ingest emits
// qualifies — never a substring match.
func isOverloaded(err error) bool {
	var se rpc.ServerError
	return errors.As(err, &se) && strings.HasPrefix(string(se), overloadedPrefix)
}

// routeLocked picks the partition for a trajectory the dataset has not
// seen before: the one whose endpoint MBRs are nearest the trajectory's
// endpoints — the STR cell it would have landed in at dispatch
// (distance 0 when it falls inside both boxes). Caller holds dd.mu.
func routeLocked(dd *dispatchedDataset, t *traj.T) int {
	first, last := t.First(), t.Last()
	best, bestD := -1, math.Inf(1)
	for i := range dd.parts {
		if dd.parts[i].retired {
			continue
		}
		d := dd.parts[i].mbrF.MinDist(first) + dd.parts[i].mbrL.MinDist(last)
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Ingest streams one trajectory into a dispatched dataset: an upsert by
// id, routed to the partition that already holds the id (so updates
// never fork a trajectory across partitions) or, for a new id, to the
// partition whose bounds fit its endpoints. The write is acked only
// after every replica of the partition has logged and applied it; a
// replica at its backpressure bound fails the call with ErrOverloaded
// (errors.Is) — back off and retry. A failed call is never acked and a
// retry is assigned a fresh sequence number; re-applying an upsert is
// idempotent, so partial application on a subset of replicas converges
// on the retry.
func (c *Coordinator) Ingest(name string, t *traj.T) error {
	return c.IngestContext(context.Background(), name, t)
}

// IngestContext is Ingest under query-lifecycle control.
func (c *Coordinator) IngestContext(ctx context.Context, name string, t *traj.T) error {
	if t == nil || len(t.Points) == 0 {
		return fmt.Errorf("dnet: ingest: empty trajectory")
	}
	dd, err := c.dataset(name)
	if err != nil {
		return err
	}
	dd.mu.Lock()
	pid, known := dd.loc[t.ID]
	if !known {
		pid = routeLocked(dd, t)
	}
	dd.mu.Unlock()
	pid, pmu := dd.lockPartitionWrite(pid, t.ID, t)
	// Holding the partition's write lock and dd.mu: reserve the sequence
	// number. It is burned on failure — a retry gets a fresh, higher
	// number, so the workers' per-record dedupe floor only ever absorbs
	// retransmissions of the same already-acked call.
	dd.nextSeq[pid]++
	seq := dd.nextSeq[pid]
	dd.mu.Unlock()
	rec := WireRecord{Seq: seq, Op: wal.OpInsert, ID: t.ID, Points: t.Points}
	if err := c.ingestReplicas(ctx, dd, pid, rec); err != nil {
		pmu.Unlock()
		return err
	}
	dd.mu.Lock()
	if _, ok := dd.loc[t.ID]; !ok {
		dd.live[pid]++
	}
	dd.loc[t.ID] = pid
	dd.mutated = true
	dd.writeMark[pid]++
	pb := &dd.parts[pid]
	nf, nl := pb.mbrF.Extend(t.First()), pb.mbrL.Extend(t.Last())
	if nf != pb.mbrF || nl != pb.mbrL {
		// The partition's bounds grew: the global index must cover the new
		// member or searches would prune the partition it lives in.
		pb.mbrF, pb.mbrL = nf, nl
		dd.boundsEpoch++
		rebuildTreesLocked(dd)
	}
	dd.mu.Unlock()
	pmu.Unlock()
	if c.met != nil {
		c.met.ingests.Inc()
	}
	return nil
}

// lockPartitionWrite takes the per-partition write lock for a mutation
// headed to pid, re-checking under the dataset lock that the id still
// belongs there — a concurrent write may have created or moved it while
// we waited, and a write serialized on the wrong partition's lock would
// reintroduce the out-of-order arrival the lock exists to prevent. A
// rebalance cutover can also retire pid while we waited; a known id is
// then re-routed through loc (the cutover rewrote it to the live piece)
// and an unknown one re-routed over the live layout (t non-nil only for
// inserts — deletes of unknown ids bail out in the caller's re-check).
// The pmu pointer is resolved under dd.mu because the slice grows at
// cutover. Returns the partition actually locked and its mutex; the
// caller holds that mutex AND dd.mu, and must release both (the mutex
// via the returned pointer — re-indexing pmu off-lock would race the
// slice growth).
func (dd *dispatchedDataset) lockPartitionWrite(pid, id int, t *traj.T) (int, *sync.Mutex) {
	for {
		dd.mu.Lock()
		mu := dd.pmu[pid]
		dd.mu.Unlock()
		mu.Lock()
		dd.mu.Lock()
		cur, ok := dd.loc[id]
		if ok {
			if cur == pid {
				return pid, mu
			}
		} else if t == nil || !dd.parts[pid].retired {
			return pid, mu
		} else {
			cur = routeLocked(dd, t)
		}
		dd.mu.Unlock()
		mu.Unlock()
		pid = cur
	}
}

// Delete streams one deletion into a dispatched dataset. It returns
// false (no error) when the id is unknown — nothing to route to. Acked
// like Ingest: every replica logged and applied the tombstone.
func (c *Coordinator) Delete(name string, id int) (bool, error) {
	return c.DeleteContext(context.Background(), name, id)
}

// DeleteContext is Delete under query-lifecycle control.
func (c *Coordinator) DeleteContext(ctx context.Context, name string, id int) (bool, error) {
	dd, err := c.dataset(name)
	if err != nil {
		return false, err
	}
	dd.mu.Lock()
	pid, known := dd.loc[id]
	if !known {
		dd.mu.Unlock()
		return false, nil
	}
	dd.mu.Unlock()
	pid, pmu := dd.lockPartitionWrite(pid, id, nil)
	if _, still := dd.loc[id]; !still {
		// Deleted by a concurrent call while we waited for the lock.
		dd.mu.Unlock()
		pmu.Unlock()
		return false, nil
	}
	dd.nextSeq[pid]++
	seq := dd.nextSeq[pid]
	dd.mu.Unlock()
	rec := WireRecord{Seq: seq, Op: wal.OpDelete, ID: id}
	if err := c.ingestReplicas(ctx, dd, pid, rec); err != nil {
		pmu.Unlock()
		return false, err
	}
	dd.mu.Lock()
	delete(dd.loc, id)
	dd.live[pid]--
	dd.mutated = true
	dd.writeMark[pid]++
	dd.mu.Unlock()
	pmu.Unlock()
	if c.met != nil {
		c.met.deletes.Inc()
	}
	return true, nil
}

// rebuildTreesLocked rebuilds the dataset's global R-trees from the
// current partition bounds. Caller holds dd.mu; readers are unaffected
// because the trees are replaced, never mutated — a view captured
// earlier keeps its (older, smaller) trees, which at worst misses a
// member ingested after the view was taken, never one before.
func rebuildTreesLocked(dd *dispatchedDataset) {
	ef := make([]rtree.Entry, 0, len(dd.parts))
	el := make([]rtree.Entry, 0, len(dd.parts))
	for i := range dd.parts {
		p := &dd.parts[i]
		if p.retired {
			continue
		}
		ef = append(ef, rtree.Entry{MBR: p.mbrF, ID: i})
		el = append(el, rtree.Entry{MBR: p.mbrL, ID: i})
	}
	dd.rtF = rtree.New(ef)
	dd.rtL = rtree.New(el)
}

// ingestReplicas fans the records out to every current owner of the
// partition, concurrently, and acks only when all of them succeeded —
// replication before acknowledgment, so losing any single replica after
// an ack loses nothing. Unlike the query paths there is no failover:
// a write that any replica refused is not durable everywhere and must
// not be acked.
func (c *Coordinator) ingestReplicas(ctx context.Context, dd *dispatchedDataset, pid int, recs ...WireRecord) error {
	dd.mu.Lock()
	owners := append([]int(nil), dd.replicas[pid]...)
	dd.mu.Unlock()
	if len(owners) == 0 {
		return fmt.Errorf("dnet: ingest: no replicas for partition %s/%d", dd.name, pid)
	}
	args := &IngestArgs{Dataset: dd.name, Partition: pid, Records: recs}
	errs := make([]error, len(owners))
	var wg sync.WaitGroup
	for i, w := range owners {
		wg.Add(1)
		go func(i, w int) {
			defer wg.Done()
			var reply IngestReply
			_, err := c.clients[w].CallContextN(ctx, "Worker.Ingest", args, &reply)
			errs[i] = err
			if err == nil {
				c.health.success(w)
				return
			}
			if ctx.Err() != nil {
				return
			}
			if retryableError(err) {
				c.health.failure(w, false)
			} else {
				// An application error (overloaded, unknown partition) is
				// proof of life.
				c.health.success(w)
			}
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err == nil {
			continue
		}
		if isOverloaded(err) {
			if c.met != nil {
				c.met.ingestRejected.Inc()
			}
			return fmt.Errorf("dnet: ingest %s/%d: %w", dd.name, pid, ErrOverloaded)
		}
		return fmt.Errorf("dnet: ingest %s/%d: %w", dd.name, pid, err)
	}
	return nil
}
