// Streaming ingest for the network mode: the coordinator routes single-
// trajectory upserts and deletes to the owning partition by the global
// index, assigns each mutation a number from the dataset's one sequence
// counter (core.Layout: monotone across partitions, so per partition), and
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
	"net/rpc"
	"strings"
	"sync"

	"dita/internal/core"
	"dita/internal/snap"
	"dita/internal/traj"
	"dita/internal/wal"
)

// overloadedPrefix starts the application error Worker.Ingest returns
// when the partition's overlay is at the backpressure bound. It crosses the
// wire as the rpc.ServerError string; the coordinator's isOverloaded
// matches it with an exact prefix check (the peerUnreachablePrefix
// pattern) and surfaces ErrOverloaded so callers can back off and retry —
// keep the two in sync when rewording.
const overloadedPrefix = "dnet: ingest overloaded: "

// identity returns the partition's content identity and durability flags,
// which merges rewrite, and the highest sequence number it applied.
func (p *workerPartition) identity() (fp uint64, snapped bool, snapBytes int64, lastSeq uint64) {
	p.idMu.Lock()
	fp, snapped, snapBytes = p.fingerprint, p.snapped, p.snapBytes
	p.idMu.Unlock()
	return fp, snapped, snapBytes, p.store.LastSeq()
}

// Ingest implements the streamed-mutation RPC: the partition's store
// validates the batch, appends it to the WAL (fsync) and only then applies
// it (core.Store.Apply), so an acked batch is durable at every instant
// afterwards. Records at or below the store's dedupe floor are skipped — a
// retransmission of an acked batch is a cheap no-op, which is what makes
// rpc-layer retries safe. The floor is sound only because the coordinator
// serializes a partition's writes end to end (dispatchedDataset.pmu):
// first delivery is always in seq order, so anything at or below the floor
// is a retransmission, never a fresh write that lost a race. An overlay at
// the backpressure bound rejects the whole batch with the overloaded error
// and kicks a background merge so a later retry finds room; a delta at the
// merge threshold is merged before the reply.
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
		bytes += 16*len(r.Points) + 16
	}
	s.w.bytesIn.Add(int64(bytes))

	p.store.LockAppend()
	a, err := p.store.Apply(core.MergePolicy{MergeBytes: s.w.MergeBytes, MaxDeltaBytes: s.w.MaxDeltaBytes}, args.Records, nil)
	p.store.UnlockAppend()
	reply.Applied, reply.Deduped, reply.LastSeq, reply.DeltaBytes = a.Fresh, a.Deduped, a.LastSeq, a.OverlayBytes
	s.w.ingestDeduped.Add(int64(a.Deduped))
	if errors.Is(err, core.ErrDeltaBacklog) {
		s.w.ingestRejected.Add(1)
		// Kick a merge so the overlay drains; the caller's retry after
		// backoff then finds room. A merge already in flight makes this a
		// no-op.
		go s.w.mergePartition(args.Dataset, args.Partition, p)
		return fmt.Errorf("%spartition %s/%d: %v", overloadedPrefix, args.Dataset, args.Partition, err)
	}
	if err != nil {
		return fmt.Errorf("dnet: ingest %s/%d: %w", args.Dataset, args.Partition, err)
	}
	s.w.ingestRecords.Add(int64(a.Fresh))
	if a.MergeDue && s.w.mergePartition(args.Dataset, args.Partition, p) {
		reply.Merged = true
		reply.DeltaBytes = p.store.OverlayBytes()
	}
	return nil
}

// mergePartition folds the partition's overlay into a fresh base
// (core.Store.Fold): the rebuilt base is installed with its new content
// fingerprint, then sealed as a snapshot carrying the fold's watermark, and
// only after a successful seal does the store truncate the WAL through it.
// If the seal fails the log keeps its full suffix past the old on-disk
// watermark — replay still reconstructs exactly this state, the log is
// merely longer. It reports whether anything was folded.
func (w *Worker) mergePartition(dataset string, pid int, p *workerPartition) bool {
	var fp uint64
	h := core.FoldHooks{Publish: func(base *snap.Snapshot, install func()) {
		fp = snap.Fingerprint(p.opts, base.Trajs)
		install()
		p.idMu.Lock()
		p.fingerprint, p.snapped, p.snapBytes = fp, false, 0
		p.idMu.Unlock()
		w.merges.Add(1)
	}}
	if w.SnapStore != nil {
		h.Seal = func(base *snap.Snapshot) error {
			// The partition may have been unloaded while we folded; sealing
			// now would resurrect a snapshot the coordinator rolled back. The
			// check alone is racy — Unload can run right after it — but Unload
			// (and the epoch resets in Load/Replicate) holds the store's folds
			// before touching the durable pair, so a teardown that loses the
			// race deletes whatever this merge writes once it finishes.
			w.mu.RLock()
			installed := w.parts[partKey{dataset, pid}] == p
			w.mu.RUnlock()
			if !installed {
				return errUnloaded
			}
			base.Dataset, base.Partition, base.Opts = dataset, pid, p.opts
			size, err := w.SnapStore.Save(base)
			if err != nil {
				w.snapWriteErr.Add(1)
				return err
			}
			w.snapWriteOK.Add(1)
			p.idMu.Lock()
			if p.fingerprint == fp {
				p.snapped, p.snapBytes = true, size
			}
			p.idMu.Unlock()
			return nil
		}
	}
	folded, _ := p.store.Fold(h)
	return folded
}

// errUnloaded keeps a merge that lost a race with Unload from sealing.
var errUnloaded = errors.New("dnet: merge: partition unloaded")

// --- coordinator side ---

// isOverloaded detects the worker-side backpressure signal. Only an
// rpc.ServerError that starts with the exact prefix Worker.Ingest emits
// qualifies — never a substring match.
func isOverloaded(err error) bool {
	var se rpc.ServerError
	return errors.As(err, &se) && strings.HasPrefix(string(se), overloadedPrefix)
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

// IngestContext is Ingest under query-lifecycle control. A trajectory the
// index cannot hold (traj.Validate: fewer than two points, a non-finite
// coordinate) is refused before a sequence number is reserved.
func (c *Coordinator) IngestContext(ctx context.Context, name string, t *traj.T) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("dnet: ingest: %w", err)
	}
	dd, err := c.dataset(name)
	if err != nil {
		return err
	}
	dd.mu.Lock()
	pid := dd.lay.Route(t)
	dd.mu.Unlock()
	pid, pmu := dd.lockPartitionWrite(pid, t.ID, t)
	// Holding the partition's write lock and dd.mu: reserve the sequence
	// number. It is burned on failure — a retry gets a fresh, higher
	// number, so the workers' per-record dedupe floor only ever absorbs
	// retransmissions of the same already-acked call.
	rec := WireRecord{Seq: dd.lay.Reserve(), Op: wal.OpInsert, ID: t.ID, Points: t.Points}
	dd.mu.Unlock()
	if err := c.ingestReplicas(ctx, dd, pid, rec); err != nil {
		pmu.Unlock()
		return err
	}
	dd.ack(pid, rec)
	pmu.Unlock()
	if c.met != nil {
		c.met.ingests.Inc()
	}
	return nil
}

// lockPartitionWrite takes the per-partition write lock for a mutation
// headed to pid and re-checks under the dataset lock that it still routes
// there, by the engine's rule (core.Layout.Route; a delete, t nil, follows
// the id's location and an unknown id bails out in the caller's re-check):
// a concurrent write may have created or moved the id, or a cutover retired
// pid, while we waited, and a write serialized on the wrong partition's
// lock would reintroduce the out-of-order arrival the lock exists to
// prevent. The pmu pointer is resolved under dd.mu because the slice grows
// at cutover. Returns the partition actually locked and its mutex; the
// caller holds that mutex AND dd.mu, and must release both (the mutex via
// the returned pointer — re-indexing pmu off-lock would race the growth).
func (dd *dispatchedDataset) lockPartitionWrite(pid, id int, t *traj.T) (int, *sync.Mutex) {
	for {
		dd.mu.Lock()
		mu := dd.pmu[pid]
		dd.mu.Unlock()
		mu.Lock()
		dd.mu.Lock()
		cur, ok := dd.lay.Locate(id)
		if t != nil {
			cur, ok = dd.lay.Route(t), true
		}
		if !ok || cur == pid {
			return pid, mu
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
	pid, known := dd.lay.Locate(id)
	dd.mu.Unlock()
	if !known {
		return false, nil
	}
	pid, pmu := dd.lockPartitionWrite(pid, id, nil)
	if _, still := dd.lay.Locate(id); !still {
		// Deleted by a concurrent call while we waited for the lock.
		dd.mu.Unlock()
		pmu.Unlock()
		return false, nil
	}
	rec := WireRecord{Seq: dd.lay.Reserve(), Op: wal.OpDelete, ID: id}
	dd.mu.Unlock()
	if err := c.ingestReplicas(ctx, dd, pid, rec); err != nil {
		pmu.Unlock()
		return false, err
	}
	dd.ack(pid, rec)
	pmu.Unlock()
	if c.met != nil {
		c.met.deletes.Inc()
	}
	return true, nil
}

// ack records a write every replica acked: the layout's routing, counts,
// marks and — for an insert outside the partition's boxes — grown bounds,
// which the global index must cover or searches would prune the partition
// the member lives in. The caller holds the partition's write lock.
func (dd *dispatchedDataset) ack(pid int, rec WireRecord) {
	dd.mu.Lock()
	dd.lay.Ack(pid, rec)
	dd.mutated = true
	dd.mu.Unlock()
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
