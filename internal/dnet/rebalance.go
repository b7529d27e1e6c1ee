// Online STR re-partitioning for the network mode: the coordinator can
// split a hot partition or merge cold siblings while ingest and queries
// keep running, re-cutting the group's CURRENT visible members (base
// minus tombstones plus delta, exported from live replicas) with fresh
// STR boundaries. Partition ids are never reused — the cutover appends
// the pieces at fresh ids and retires the old ones in place — so WAL
// and snapshot filenames and serve-layer epoch indices never alias
// across layouts.
//
// Cutover ordering (repartitionGroup):
//
//  1. quiesce   — take every group member's write lock (pmu), in
//     ascending pid order, WITHOUT holding dd.mu. Writes to
//     the group now block; writes elsewhere proceed.
//  2. export    — pull each member's visible image from a live replica
//     (Worker.Export, snap.Decode-verified). The all-replica
//     write ack plus the held locks make any one replica's
//     visible set authoritative.
//  3. cut       — str.Cut over the members' first points; assign.
//  4. load      — ship each piece to Replicas live workers at fresh
//     pids. ANY failure unloads the loaded pieces and aborts
//     with the old layout fully intact — a worker death
//     mid-cutover can only ever produce old-or-new, never a
//     mix.
//  5. install   — under dd.mu: append piece entries, drop the old
//     pids' replicas, and publish to the layout
//     (core.Layout.Install: retire the old pids with bumped
//     write marks, re-point routing, bump the bounds epoch,
//     rebuild the R-trees).
//  6. release   — drop the write locks; unload the old pids from their
//     former owners, best-effort (a failed unload leaves a
//     stale copy that inventory-driven recovery skips).
//
// Queries that captured a layout view before step 5 may still contact an
// old pid after its unload in step 6 and see "partition not loaded";
// that is the same transient the replica-failover/AllowPartial machinery
// already absorbs for worker deaths, and the next view routes cleanly.
//
// RecoverDataset closes the two restart gaps the serving design doc
// documented: a restarted coordinator rebuilds its routing table from
// worker Manifests (visible ids + TRUE current bounds), so acked
// overlays survive re-registration and ingested outliers outside the
// dispatch-time MBRs stay findable.
package dnet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dita/internal/core"
	"dita/internal/geom"
	"dita/internal/snap"
	"dita/internal/str"
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

// NetRebalanceStats accounts one distributed cutover.
type NetRebalanceStats struct {
	// Retired are the partition ids emptied by the cutover; Created the
	// fresh ids holding the re-cut pieces.
	Retired []int
	Created []int
	// Trajs is the number of visible trajectories moved.
	Trajs int
	// Plan is the STR boundary plan the cut used.
	Plan str.Plan
	// Skew is the dataset's occupancy skew after the cutover.
	Skew float64
	// Duration is the wall-clock cutover time, shipping included.
	Duration time.Duration
}

// SplitPartition re-cuts one partition's current visible members into up
// to k pieces with fresh STR boundaries, shipping each piece to Replicas
// workers and retiring the original, while ingest and queries keep
// running against the rest of the dataset.
func (c *Coordinator) SplitPartition(name string, pid, k int) (*NetRebalanceStats, error) {
	if k < 2 {
		return nil, fmt.Errorf("dnet: split: k=%d, need >= 2", k)
	}
	return c.repartitionGroup(name, []int{pid}, k)
}

// MergePartitions folds several partitions' current visible members into
// one fresh partition, retiring the originals.
func (c *Coordinator) MergePartitions(name string, pids []int) (*NetRebalanceStats, error) {
	if len(pids) < 2 {
		return nil, fmt.Errorf("dnet: merge partitions: need >= 2 pids, got %d", len(pids))
	}
	return c.repartitionGroup(name, pids, 1)
}

// repartitionGroup is the unified cutover (k=1 merges). See the file
// comment for the ordering and crash-behavior argument.
func (c *Coordinator) repartitionGroup(name string, pids []int, k int) (*NetRebalanceStats, error) {
	start := time.Now()
	dd, err := c.dataset(name)
	if err != nil {
		return nil, err
	}
	// One cutover at a time per dataset: cutovers take several pmu
	// entries, and two over overlapping groups would deadlock.
	dd.rebalMu.Lock()
	defer dd.rebalMu.Unlock()

	dd.mu.Lock()
	group, err := dd.lay.Group(pids)
	if err != nil {
		dd.mu.Unlock()
		return nil, fmt.Errorf("dnet: rebalance %s: %w", name, err)
	}
	pmus := make([]*sync.Mutex, len(group))
	for i, pid := range group {
		pmus[i] = dd.pmu[pid]
	}
	dd.mu.Unlock()

	// Quiesce the group. Ascending order matches the lock order every
	// writer uses (one pmu at a time, never while holding dd.mu), so
	// this cannot deadlock with in-flight ingest.
	for _, mu := range pmus {
		mu.Lock()
	}
	unlock := func() {
		for _, mu := range pmus {
			mu.Unlock()
		}
	}

	// Former owners, captured before the install rewrites the replica
	// lists; they serve the exports and receive the final unloads.
	oldOwners := make(map[int][]int, len(group))
	dd.mu.Lock()
	for _, pid := range group {
		oldOwners[pid] = append([]int(nil), dd.replicas[pid]...)
	}
	basePid := dd.lay.Len()
	dd.mu.Unlock()

	// Export each member's visible image from a live replica. The held
	// write locks mean no new acked writes can land; the all-replica ack
	// rule means every replica already holds every acked write, so any
	// one replica's export is the partition's full visible state.
	var members []*traj.T
	var opts snap.BuildOptions
	for _, pid := range group {
		var sn *snap.Snapshot
		var lastErr error
		for _, w := range c.health.order(oldOwners[pid]) {
			var ex ExportReply
			if err := c.clients[w].Call("Worker.Export", &ExportArgs{Dataset: name, Partition: pid}, &ex); err != nil {
				lastErr = err
				continue
			}
			dec, err := snap.Decode(ex.Data)
			if err != nil || dec.Dataset != name || dec.Partition != pid {
				lastErr = fmt.Errorf("dnet: rebalance %s/%d: bad export from %s: %v", name, pid, c.addrs[w], err)
				continue
			}
			sn = dec
			break
		}
		if sn == nil {
			unlock()
			if lastErr == nil {
				lastErr = fmt.Errorf("no replicas")
			}
			return nil, fmt.Errorf("dnet: rebalance %s/%d: export failed: %w", name, pid, lastErr)
		}
		opts = sn.Opts
		members = append(members, sn.Trajs...)
	}

	// Cut fresh STR boundaries over the members' first points and group.
	firsts := make([]geom.Point, len(members))
	for i, t := range members {
		firsts[i] = t.First()
	}
	plan := str.Cut(firsts, k)
	groups := plan.Assign(firsts)
	type piece struct {
		pid         int
		members     []*traj.T
		owners      []int
		fingerprint uint64
	}
	var pieces []piece
	for _, idxs := range groups {
		if len(idxs) > 0 {
			pieces = append(pieces, piece{members: make([]*traj.T, len(idxs))})
			for j, i := range idxs {
				pieces[len(pieces)-1].members[j] = members[i]
			}
		}
	}
	if len(pieces) == 0 {
		// Every visible member was deleted; install one empty piece so
		// the dataset keeps at least one live partition to route to.
		pieces = []piece{{}}
	}
	for pi := range pieces {
		pc := &pieces[pi]
		pc.pid = basePid + pi
		pc.fingerprint = snap.Fingerprint(opts, pc.members)
	}

	// Place each piece on the Replicas least-loaded live workers.
	states := c.health.snapshot()
	loads := make([]int, len(c.addrs))
	dd.mu.Lock()
	for _, owners := range dd.replicas {
		for _, w := range owners {
			loads[w]++
		}
	}
	dd.mu.Unlock()
	for pi := range pieces {
		for len(pieces[pi].owners) < c.cfg.Replicas {
			target := leastLoaded(states, loads, pieces[pi].owners)
			if target < 0 {
				break
			}
			loads[target]++
			pieces[pi].owners = append(pieces[pi].owners, target)
		}
		if len(pieces[pi].owners) == 0 {
			unlock()
			return nil, fmt.Errorf("dnet: rebalance %s: no live workers to place piece %d", name, pieces[pi].pid)
		}
	}

	// Ship the pieces, each sealed once for all its owners. Any failure
	// aborts with the old layout intact: loaded pieces are unloaded, nothing
	// was installed, the write locks drop, and ingest/queries continue
	// against the old partitions.
	jobs := make([]sealJob, len(pieces))
	for pi, pc := range pieces {
		jobs[pi] = sealJob{pid: pc.pid, members: pc.members, workers: pc.owners}
	}
	if _, err := c.loadSealed(name, opts, jobs); err != nil {
		unlock()
		return nil, fmt.Errorf("dnet: rebalance %s: piece load failed, cutover aborted: %w", name, err)
	}

	// Install the new layout atomically under dd.mu.
	st := &NetRebalanceStats{Retired: group, Trajs: len(members), Plan: plan}
	installed := make([][]*traj.T, len(pieces))
	dd.mu.Lock()
	for pi, pc := range pieces {
		// No payload is kept: the cutover marks the dataset mutated below,
		// and a mutated dataset heals worker-to-worker only.
		dd.parts = append(dd.parts, dispatchedPartition{trajs: len(pc.members), fingerprint: pc.fingerprint})
		dd.replicas = append(dd.replicas, pc.owners)
		dd.pmu = append(dd.pmu, new(sync.Mutex))
		installed[pi] = pc.members
	}
	for _, pid := range group {
		dd.parts[pid] = dispatchedPartition{}
		dd.replicas[pid] = nil
	}
	// Routing drops every id the retired group showed and points the
	// exported visible ids at their pieces. Ids the coordinator tracked
	// but the export lacked (a partially-applied delete that was never
	// acked) fall out of the table — the installed content is now the
	// authority. Ids the export carried that the table lacked (a
	// partially-applied insert) become tracked, like any surfaced
	// unacked-but-durable write.
	st.Created = dd.lay.Install(group, installed)
	dd.mutated = true
	_, _, st.Skew = core.Skew(dd.lay.Loads())
	dd.mu.Unlock()
	unlock()
	// Retired pids never serve reads again; forget their cost EWMAs so
	// the planner sees only the fresh pieces' signal.
	dd.cost.Drop(group...)

	// Retired pids leave their former owners; a failed unload leaves a
	// stale copy behind that inventory-driven recovery skips (its ids
	// fully overlap the live layout) and the next Load/Replicate at that
	// key resets.
	var uwg sync.WaitGroup
	for _, pid := range group {
		for _, w := range oldOwners[pid] {
			uwg.Add(1)
			go func(pid, w int) {
				defer uwg.Done()
				var ur UnloadReply
				c.clients[w].CallOnce("Worker.Unload",
					&UnloadArgs{Dataset: name, Partition: pid}, &ur, c.cfg.Retry.CallTimeout)
			}(pid, w)
		}
	}
	uwg.Wait()
	st.Duration = time.Since(start)
	c.met.rebalanceObserve(st.Duration, st.Skew)
	return st, nil
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
func (c *Coordinator) RebalanceOnce(name string, pol core.RebalancePolicy) (*NetRebalanceStats, error) {
	pol = pol.Sanitized()
	dd, err := c.dataset(name)
	if err != nil {
		return nil, err
	}
	dd.mu.Lock()
	hot, cold, kSplit := core.PlanRebalance(dd.lay.Loads(), dd.cost, pol)
	dd.mu.Unlock()
	switch {
	case hot >= 0:
		return c.SplitPartition(name, hot, kSplit)
	case len(cold) >= 2:
		return c.MergePartitions(name, cold)
	}
	return nil, nil
}

// Rebalance runs planner steps (core.Converge) until the skew is within
// bound and no cold merge remains. A run that spends the step budget
// without converging is counted as coord_rebalance_noconverge_total;
// callers (the autopilot in particular) should back off instead of
// immediately retrying.
func (c *Coordinator) Rebalance(name string, pol core.RebalancePolicy) ([]*NetRebalanceStats, bool, error) {
	steps, converged, err := core.Converge(func() (*NetRebalanceStats, error) { return c.RebalanceOnce(name, pol) })
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
	maxPid := 0
	for pid := range holders {
		pids = append(pids, pid)
		if pid > maxPid {
			maxPid = pid
		}
	}
	sort.Ints(pids)

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
	desc := make([]int, len(pids))
	for i, pid := range pids {
		desc[len(pids)-1-i] = pid
	}
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
	var uwg sync.WaitGroup
	for _, pid := range pids {
		freshSet := make(map[int]bool, len(fresh[pid]))
		for _, w := range fresh[pid] {
			freshSet[w] = true
		}
		for _, h := range holders[pid] {
			if keptSet[pid] && freshSet[h.w] {
				continue
			}
			uwg.Add(1)
			go func(pid, w int) {
				defer uwg.Done()
				var ur UnloadReply
				c.clients[w].CallOnce("Worker.Unload",
					&UnloadArgs{Dataset: name, Partition: pid}, &ur, c.cfg.Retry.CallTimeout)
			}(pid, h.w)
		}
		if !keptSet[pid] {
			rep.Dropped = append(rep.Dropped, pid)
		}
	}
	uwg.Wait()

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
