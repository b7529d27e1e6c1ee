// Online STR re-partitioning for the network mode: the coordinator can
// split a hot partition or merge cold siblings while ingest and queries
// keep running. The protocol is core.Cutover; this file is its dnet host:
//
//   - Freeze takes every group member's write lock (pmu), ascending,
//     WITHOUT holding dd.mu, captures the former owners and exports each
//     member's visible image from a live replica (Worker.Export,
//     snap.Decode-verified). The all-replica write ack plus the held locks
//     make any one replica's visible set authoritative.
//   - Stage places each piece on Replicas least-loaded live workers and
//     loads it sealed (loadSealed). ANY failure unloads the loaded pieces
//     and aborts with the old layout fully intact — a worker death
//     mid-cutover can only ever produce old-or-new, never a mix.
//   - Publish appends the pieces' entries and clears the group's. Routing
//     now follows the exported content: an id the table tracked but the
//     export lacked (a partially-applied delete that was never acked)
//     falls out, and one the export carried that the table lacked (a
//     partially-applied insert) becomes tracked, like any surfaced
//     unacked-but-durable write.
//
// After Cutover returns, the old pids are unloaded from their former
// owners, best-effort (a failed unload leaves a stale copy that
// inventory-driven recovery skips). Queries that captured a layout view
// before the publish may still contact an old pid after its unload and see
// "partition not loaded"; that is the same transient the replica-failover/
// AllowPartial machinery already absorbs for worker deaths, and the next
// view routes cleanly.
//
// RecoverDataset closes the two restart gaps the serving design doc
// documented: a restarted coordinator rebuilds its routing table from
// worker Manifests (visible ids + TRUE current bounds), so acked
// overlays survive re-registration and ingested outliers outside the
// dispatch-time MBRs stay findable.
package dnet

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"dita/internal/core"
	"dita/internal/geom"
	"dita/internal/snap"
	"dita/internal/traj"
)

// Manifest implements the visible-contents RPC: the partition's live
// member ids (base minus tombstones plus delta, ascending) and the exact
// MBRs over their endpoints. Recovery rebuilds the coordinator's routing
// table and global index from these instead of re-dispatching.
func (s *workerService) Manifest(args *ManifestArgs, reply *ManifestReply) (err error) {
	if !s.w.beginRPC() {
		return errDraining
	}
	defer s.w.endRPC()
	defer rpcRecover("manifest", &err)
	p, err := s.partition(args.Dataset, args.Partition)
	if err != nil {
		return err
	}
	members, lastSeq := p.store.Visible()
	reply.IDs = make([]int, len(members))
	for i, t := range members {
		reply.IDs[i] = t.ID
	}
	sort.Ints(reply.IDs)
	reply.MBRf, reply.MBRl = core.EndpointBounds(members)
	reply.Fingerprint, reply.Snapshotted, _, _ = p.identity()
	reply.LastSeq = lastSeq
	return nil
}

// SplitPartition re-cuts one partition's current visible members into up
// to k pieces with fresh STR boundaries, shipping each piece to Replicas
// workers and retiring the original, while ingest and queries keep
// running against the rest of the dataset. A split whose members all
// share one piece is a no-op and returns nil stats.
func (c *Coordinator) SplitPartition(name string, pid, k int) (*core.RebalanceStats, error) {
	return c.cutover(name, []int{pid}, k)
}

// MergePartitions folds several partitions' current visible members into
// one fresh partition, retiring the originals.
func (c *Coordinator) MergePartitions(name string, pids []int) (*core.RebalanceStats, error) {
	return c.cutover(name, pids, 1)
}

// cutover runs core.Cutover with the coordinator's hooks; see the file
// comment.
func (c *Coordinator) cutover(name string, pids []int, k int) (*core.RebalanceStats, error) {
	dd, err := c.dataset(name)
	if err != nil {
		return nil, err
	}
	var (
		// The group's copies, captured before the publish rewrites the
		// replica lists; they serve the exports and are unloaded after.
		retired []partCopy
		opts    snap.BuildOptions
		jobs    []sealJob
		fps     []uint64
	)
	st, err := core.Cutover(dd.lay, &dd.mu, dd.cost, pids, k, core.CutoverHooks{
		Freeze: func(group []int) ([]*traj.T, func(), error) {
			dd.mu.Lock()
			pmus := make([]*sync.Mutex, len(group))
			owners := make([][]int, len(group))
			for i, pid := range group {
				pmus[i], owners[i] = dd.pmu[pid], slices.Clone(dd.replicas[pid])
				for _, w := range owners[i] {
					retired = append(retired, partCopy{pid, w})
				}
			}
			dd.mu.Unlock()
			// Ascending order matches the lock order every writer uses (one
			// pmu at a time, never while holding dd.mu).
			for _, mu := range pmus {
				mu.Lock()
			}
			release := func() {
				for _, mu := range pmus {
					mu.Unlock()
				}
			}
			var members []*traj.T
			for i, pid := range group {
				sn, err := c.exportVisible(name, pid, owners[i])
				if err != nil {
					release()
					return nil, nil, err
				}
				opts = sn.Opts
				members = append(members, sn.Trajs...)
			}
			return members, release, nil
		},
		Stage: func(pieces []core.Piece, _ uint64) (error, error) {
			states := c.health.snapshot()
			dd.mu.Lock()
			loads := dd.countReplicas(make([]int, len(c.addrs)))
			dd.mu.Unlock()
			for _, pc := range pieces {
				job := sealJob{pid: pc.PID, members: pc.Members}
				for len(job.workers) < c.cfg.Replicas {
					target := leastLoaded(states, loads, job.workers)
					if target < 0 {
						break
					}
					loads[target]++
					job.workers = append(job.workers, target)
				}
				if len(job.workers) == 0 {
					return nil, fmt.Errorf("dnet: rebalance %s: no live workers to place piece %d", name, pc.PID)
				}
				jobs, fps = append(jobs, job), append(fps, snap.Fingerprint(opts, pc.Members))
			}
			if _, err := c.loadSealed(name, opts, jobs); err != nil {
				return nil, fmt.Errorf("dnet: rebalance %s: piece load failed, cutover aborted: %w", name, err)
			}
			return nil, core.CutoverCrash("pieces-loaded")
		},
		Publish: func(group []int, pieces []core.Piece) []core.PartLoad {
			for i, pc := range pieces {
				// No payload is kept: a mutated dataset heals
				// worker-to-worker only.
				dd.parts = append(dd.parts, dispatchedPartition{trajs: len(pc.Members), fingerprint: fps[i]})
				dd.replicas = append(dd.replicas, jobs[i].workers)
				dd.pmu = append(dd.pmu, new(sync.Mutex))
			}
			for _, pid := range group {
				dd.parts[pid] = dispatchedPartition{}
				dd.replicas[pid] = nil
			}
			dd.mutated = true
			return dd.lay.Loads()
		},
	})
	if st == nil {
		return nil, err
	}
	c.unload(name, retired...)
	c.met.rebalanceObserve(st.Duration, st.Skew)
	return st, nil
}

// exportVisible pulls partition pid's visible image from the first of its
// owners, in health order, that serves one that decodes.
func (c *Coordinator) exportVisible(name string, pid int, owners []int) (*snap.Snapshot, error) {
	lastErr := fmt.Errorf("no replicas")
	for _, w := range c.health.order(owners) {
		var ex ExportReply
		if err := c.clients[w].Call("Worker.Export", &ExportArgs{Dataset: name, Partition: pid}, &ex); err != nil {
			lastErr = err
			continue
		}
		sn, err := snap.Decode(ex.Data)
		if err != nil || sn.Dataset != name || sn.Partition != pid {
			lastErr = fmt.Errorf("bad export from %s: %v", c.addrs[w], err)
			continue
		}
		return sn, nil
	}
	return nil, fmt.Errorf("dnet: rebalance %s/%d: export failed: %w", name, pid, lastErr)
}

// OccupancySkew reports the dataset's max/mean visible-member occupancy
// over live partitions — the imbalance signal the rebalance planner acts
// on (0 when the dataset is empty).
func (c *Coordinator) OccupancySkew(name string) (float64, error) {
	dd, err := c.dataset(name)
	if err != nil {
		return 0, err
	}
	dd.mu.Lock()
	defer dd.mu.Unlock()
	_, _, skew := core.Skew(dd.lay.Loads())
	return skew, nil
}

// RebalanceOnce runs one planner step (core.PlanRebalance, the engine's
// planner) over the dataset's occupancy — the visible member counts — and
// its observed read cost: it splits a hot partition or merges a cold pair.
// Returns nil when no action was needed.
func (c *Coordinator) RebalanceOnce(name string, pol core.RebalancePolicy) (*core.RebalanceStats, error) {
	dd, err := c.dataset(name)
	if err != nil {
		return nil, err
	}
	dd.mu.Lock()
	pids, k := core.PlanRebalance(dd.lay.Loads(), dd.cost, pol.Sanitized())
	dd.mu.Unlock()
	if pids == nil {
		return nil, nil
	}
	return c.cutover(name, pids, k)
}

// Rebalance runs planner steps (core.Converge) until the skew is within
// bound and no cold merge remains. A run that spends the step budget
// without converging is counted as coord_rebalance_noconverge_total;
// callers (the autopilot in particular) should back off instead of
// immediately retrying.
func (c *Coordinator) Rebalance(name string, pol core.RebalancePolicy) ([]*core.RebalanceStats, bool, error) {
	steps, converged, err := core.Converge(func() (*core.RebalanceStats, error) { return c.RebalanceOnce(name, pol) })
	if err == nil && !converged && c.met != nil {
		c.met.rebalanceNoConverge.Inc()
	}
	return steps, converged, err
}

// RecoverReport summarizes a RecoverDataset pass.
type RecoverReport struct {
	// Partitions counts the live partitions recovered; Trajs their summed
	// visible members.
	Partitions int
	Trajs      int
	// Recovered lists the kept partition ids; Dropped the partition ids
	// found on workers but discarded (losers of an interrupted cutover, or
	// stale leftovers a completed cutover failed to unload).
	Recovered []int
	Dropped   []int
	// DivergedHolders counts worker copies of kept partitions dropped for
	// being behind the freshest copy (healing re-clones them).
	DivergedHolders int
}

// RecoverDataset rebuilds the coordinator's state for a dataset entirely
// from what the workers hold, instead of re-running the original
// dispatch. Re-dispatch has two documented failure modes after streaming
// writes or a rebalance: it clobbers every acked overlay (the payloads
// predate the writes), and it prunes with dispatch-time MBRs that
// ingested outliers have outgrown. Recovery instead asks every worker
// for its inventory, pulls a Manifest of each partition's visible ids
// and TRUE current bounds from its freshest holder, and reconstructs the
// routing table, global index, sequence floors, and replica lists from
// those.
//
// A crash mid-cutover can leave workers holding overlapping layouts (the
// old group and some new pieces). Both crash windows are write-free —
// the coordinator died holding the group's write locks, so neither
// layout has writes the other lacks — which means any COMPLETE layout is
// correct. Recovery resolves overlap by coverage: keep partitions
// greedily in descending pid order (prefer the newer layout), skipping
// any whose ids intersect an already-kept partition; if the kept set
// does not cover every id seen, retry in ascending order (the old layout
// is complete when the new one is not). A double failure that leaves
// neither direction covering — possible only if workers holding old
// members died too — is refused with an error naming the gap, not
// papered over.
func (c *Coordinator) RecoverDataset(name string) (*RecoverReport, error) {
	inv := c.workerInventories()
	type holder struct {
		w       int
		lastSeq uint64
	}
	holders := map[int][]holder{}
	seqFloor := map[int]uint64{}
	var maxSeq uint64
	for w := range inv {
		for k, p := range inv[w] {
			if k.dataset != name {
				continue
			}
			holders[k.id] = append(holders[k.id], holder{w, p.LastSeq})
			if p.LastSeq > seqFloor[k.id] {
				seqFloor[k.id] = p.LastSeq
			}
			maxSeq = max(maxSeq, p.LastSeq)
		}
	}
	if len(holders) == 0 {
		return nil, fmt.Errorf("dnet: recover %q: no worker holds any partition", name)
	}
	pids := make([]int, 0, len(holders))
	for pid := range holders {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	maxPid := pids[len(pids)-1]

	// Manifest each partition from its freshest holders: a copy behind
	// the max last-seq is missing acked writes and must not define the
	// partition's contents (nor remain a replica — healing re-clones it).
	manifests := map[int]*ManifestReply{}
	fresh := map[int][]int{}
	rep := &RecoverReport{}
	for _, pid := range pids {
		hs := holders[pid]
		max := seqFloor[pid]
		var man *ManifestReply
		for _, h := range hs {
			if h.lastSeq < max {
				rep.DivergedHolders++
				continue
			}
			fresh[pid] = append(fresh[pid], h.w)
			if man == nil {
				var reply ManifestReply
				if err := c.clients[h.w].Call("Worker.Manifest", &ManifestArgs{Dataset: name, Partition: pid}, &reply); err == nil {
					man = &reply
				}
			}
		}
		if man == nil {
			return nil, fmt.Errorf("dnet: recover %q: no fresh holder of partition %d answered", name, pid)
		}
		manifests[pid] = man
	}

	// Overlap resolution by coverage (see the method comment).
	universe := map[int]bool{}
	for _, man := range manifests {
		for _, id := range man.IDs {
			universe[id] = true
		}
	}
	tryKeep := func(order []int) ([]int, bool) {
		claimed := make(map[int]bool, len(universe))
		var kept []int
		for _, pid := range order {
			overlap := false
			for _, id := range manifests[pid].IDs {
				if claimed[id] {
					overlap = true
					break
				}
			}
			if overlap {
				continue
			}
			for _, id := range manifests[pid].IDs {
				claimed[id] = true
			}
			kept = append(kept, pid)
		}
		return kept, len(claimed) == len(universe)
	}
	desc := slices.Clone(pids)
	slices.Reverse(desc)
	kept, covered := tryKeep(desc)
	if !covered {
		kept, covered = tryKeep(pids)
	}
	if !covered {
		return nil, fmt.Errorf("dnet: recover %q: no combination of held partitions covers all %d trajectories; a partition holding the remainder is unreachable", name, len(universe))
	}
	sort.Ints(kept)
	keptSet := make(map[int]bool, len(kept))
	for _, pid := range kept {
		keptSet[pid] = true
	}

	// Drop the losers everywhere they are held, and the diverged copies
	// of kept partitions, so nothing stale can resurface. Best-effort:
	// a copy that survives a failed unload loses the next overlap
	// resolution the same way it lost this one.
	var stale []partCopy
	for _, pid := range pids {
		for _, h := range holders[pid] {
			if !keptSet[pid] || !slices.Contains(fresh[pid], h.w) {
				stale = append(stale, partCopy{pid, h.w})
			}
		}
		if !keptSet[pid] {
			rep.Dropped = append(rep.Dropped, pid)
		}
	}
	c.unload(name, stale...)

	// Rebuild the dataset. Unheld pid slots below maxPid (retired by
	// completed cutovers whose unloads all landed) stay retired
	// placeholders, preserving the never-renumber invariant.
	dd := &dispatchedDataset{name: name, cost: core.NewCostTracker()}
	dd.parts = make([]dispatchedPartition, maxPid+1)
	dd.replicas = make([][]int, maxPid+1)
	dd.pmu = make([]*sync.Mutex, maxPid+1)
	bounds := make([]core.PartBounds, maxPid+1)
	loc := map[int]int{}
	for pid := 0; pid <= maxPid; pid++ {
		dd.pmu[pid] = new(sync.Mutex)
		bounds[pid] = core.PartBounds{MBRf: geom.EmptyMBR(), MBRl: geom.EmptyMBR(), Retired: true}
	}
	for _, pid := range kept {
		man := manifests[pid]
		dd.parts[pid] = dispatchedPartition{trajs: len(man.IDs), fingerprint: man.Fingerprint}
		bounds[pid] = core.PartBounds{MBRf: man.MBRf, MBRl: man.MBRl}
		dd.replicas[pid] = c.health.order(fresh[pid])
		for _, id := range man.IDs {
			loc[id] = pid
		}
		rep.Partitions++
		rep.Trajs += len(man.IDs)
	}
	rep.Recovered = kept
	dd.lay = core.NewLayout(bounds, make([]int, maxPid+1))
	dd.lay.Track(loc)
	dd.lay.RaiseSeq(maxSeq)
	// The manifests already fold every acked overlay, but the content no
	// longer matches any dispatch payload: healing must go worker-to-
	// worker, unpinned.
	dd.mutated = true
	c.mu.Lock()
	// Recovering over a live dataset (rather than after a restart) must
	// not rewind the epoch clock: recovery can surface unacked-but-
	// durable writes, so any answer cached against the old state is
	// suspect. Advancing past the old bounds epoch stales them all.
	if old, ok := c.datasets[name]; ok {
		old.mu.Lock()
		dd.lay.Follow(old.lay.View().Epochs)
		old.mu.Unlock()
	}
	c.datasets[name] = dd
	c.mu.Unlock()
	return rep, nil
}
