package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"dita/internal/geom"
	"dita/internal/str"
	"dita/internal/traj"
	"dita/internal/wal"
)

// This file implements online STR re-partitioning: splitting a hot
// partition into several pieces and merging cold siblings into one,
// re-running the STR boundary cuts and per-trajectory pivot selection
// (the trie rebuild) over the group's *current visible* members — base
// minus tombstones plus delta — so sustained skewed ingest cannot pin
// occupancy onto a few dispatch-time partitions.
//
// Partition identity is retire-in-place: ids are stable (they key WAL
// and snapshot filenames, the location map, and dnet replica lists), so
// a split/merge never renumbers — the old partitions are emptied and
// flagged retired, and the pieces take fresh ids appended at the end.
//
// Durability ordering (the crash matrix; DESIGN.md §14). All steps run
// under the group's fold holds and append locks and the engine write lock,
// so no fold or write lands and no query runs mid-cutover:
//
//  1. Build the pieces in memory and open their fresh WALs.
//  2. Seal the pieces' snapshots, ascending pid. A crash here leaves
//     the old partitions' (snapshot, WAL) pairs authoritative; any
//     already-sealed piece duplicates old content and is masked
//     deterministically at the next EnableIngest — base members when
//     the bases are loaded (lowest pid wins), the old logs' inserts
//     once every log is replayed (relocateReplayed: the overlay copy
//     wins) — so recovery sees exactly the old layout.
//  3. Seal an empty tombstone snapshot over each old partition (its
//     watermark = the cut sequence, so a leftover WAL suffix replays as
//     a no-op), then remove its WAL. A crash between tombstones leaves
//     some groups old, some new — but per partition group the layout is
//     one or the other, never a mix of visible copies.
//  4. Install the new layout in memory: retire the old partitions,
//     append the pieces, rewrite the location map, rebuild the global
//     R-trees. Only after this can a write route to a piece, so a
//     piece's WAL can never hold records while an old full snapshot is
//     still live.
//
// An error in step 2 aborts the cutover (pieces removed, old layout
// untouched). An error in step 3 rolls forward — the memory cutover
// installs anyway and the error is reported — because the first
// tombstone seal already made the new layout durable for part of the
// group; the affected partition keeps its full snapshot AND its WAL, so
// its content stays exactly recoverable.

// ErrRebalanceBusy is returned when a group member has a merge fold in
// flight; the caller should retry after the merge completes.
var ErrRebalanceBusy = errors.New("core: rebalance: merge in flight")

// rebalanceCrashHook, when non-nil, is consulted at the named durability
// boundaries of a cutover ("wals-open", "pieces-sealed", "tombstoned").
// Returning true simulates a crash at that instant: the cutover stops
// with the disk in exactly the state a power cut would leave, no memory
// install happens, and errRebalanceCrashed is returned. Test-only.
var rebalanceCrashHook func(stage string) bool

var errRebalanceCrashed = errors.New("core: rebalance: simulated crash")

// crashPoint closes the pieces' log handles (their files stay, as they
// would across a real crash) when the hook asks for a crash.
func crashPoint(stage string, pieces []*Partition) bool {
	if rebalanceCrashHook == nil || !rebalanceCrashHook(stage) {
		return false
	}
	closeLogs(pieces, nil, "")
	return true
}

// closeLogs closes the partitions' WALs and, given their store, removes the
// files too.
func closeLogs(parts []*Partition, store *wal.Store, dataset string) {
	for _, q := range parts {
		_ = q.CloseLog()
		if store != nil {
			_ = store.Remove(dataset, q.ID)
		}
	}
}

// RebalanceStats reports one split/merge cutover.
type RebalanceStats struct {
	// Retired are the partition ids emptied by the cutover.
	Retired []int
	// Created are the fresh partition ids holding the re-cut pieces.
	Created []int
	// Trajs is the number of visible trajectories moved.
	Trajs int
	// Plan is the STR boundary plan the cut used (one tile per piece
	// requested; empty tiles are dropped from Created).
	Plan str.Plan
	// Duration is the wall-clock cutover time, sealing included.
	Duration time.Duration
}

// SplitPartition re-cuts one partition's visible members into up to k
// pieces with fresh STR boundaries and freshly selected pivots,
// retiring the original. Returns the new partition ids.
func (e *Engine) SplitPartition(pid, k int) (*RebalanceStats, error) {
	if k < 2 {
		return nil, fmt.Errorf("core: split: k=%d, need >= 2", k)
	}
	return e.repartitionGroup([]int{pid}, k)
}

// MergePartitions folds several partitions' visible members into one
// fresh partition (re-built trie, re-selected pivots, exact MBRs),
// retiring the originals.
func (e *Engine) MergePartitions(pids []int) (*RebalanceStats, error) {
	if len(pids) < 2 {
		return nil, fmt.Errorf("core: merge partitions: need >= 2 pids, got %d", len(pids))
	}
	return e.repartitionGroup(pids, 1)
}

// repartitionGroup is the unified cutover: the visible members of pids
// are re-cut into up to k pieces (k=1 merges). See the file comment for
// the locking and durability ordering.
func (e *Engine) repartitionGroup(pids []int, k int) (*RebalanceStats, error) {
	start := time.Now()
	group, stores, err := e.validateGroup(pids)
	if err != nil {
		return nil, err
	}
	// The store lock order, in ascending pid order: every fold hold (a fold
	// in flight makes the group busy), then every append lock, then the
	// engine write lock.
	var held []func()
	release := func() {
		for i := len(held) - 1; i >= 0; i-- {
			held[i]()
		}
	}
	for _, s := range stores {
		r, ok := s.TryHoldFolds()
		if !ok {
			release()
			return nil, ErrRebalanceBusy
		}
		held = append(held, r)
	}
	for _, s := range stores {
		s.LockAppend()
		held = append(held, s.UnlockAppend)
	}
	e.mu.Lock()
	unlock := func() {
		e.mu.Unlock()
		release()
	}
	st := e.ing
	if st == nil {
		unlock()
		return nil, fmt.Errorf("core: rebalance: ingest not enabled")
	}
	for _, p := range group {
		if p.retired {
			unlock()
			return nil, fmt.Errorf("core: rebalance: partition %d already retired", p.ID)
		}
	}

	// The cut sequence: every record in the group's logs is <= st.seq
	// (the append locks are held, so no append is in flight), and every
	// piece starts its life at this watermark — a leftover old-WAL suffix
	// replayed over a tombstone snapshot skips entirely.
	cutSeq := st.seq
	var visible []*traj.T
	for _, p := range group {
		visible = append(visible, p.View().Visible()...)
	}

	// Re-run the STR boundary cut over the current first points. The
	// plan is total, so trajectories ingested after the cut (routed by
	// nearest-MBR) and the pieces' exact MBRs stay consistent.
	firsts := make([]geom.Point, len(visible))
	for i, t := range visible {
		firsts[i] = t.First()
	}
	plan := str.Cut(firsts, k)
	groups := plan.Assign(firsts)

	stats := &RebalanceStats{Plan: plan, Trajs: len(visible)}
	var pieces []*Partition
	nextID := len(e.parts)
	W := e.cl.Workers()
	for _, g := range groups {
		if len(g) == 0 && len(pieces) > 0 {
			continue // drop empty tiles, but always create at least one piece
		}
		members := make([]*traj.T, len(g))
		for i, j := range g {
			members[i] = visible[j]
		}
		pieces = append(pieces, e.buildPiece(nextID, W, members, cutSeq))
		nextID++
	}
	if len(pieces) == 0 {
		pieces = append(pieces, e.buildPiece(nextID, W, nil, cutSeq))
	}

	// Fresh WALs for the pieces before anything becomes visible; a
	// failure here aborts with no state change.
	if st.cfg.WAL != nil {
		name := e.dataset.Name
		for _, p := range pieces {
			_ = st.cfg.WAL.Remove(name, p.ID)
			l, _, err := st.cfg.WAL.Open(name, p.ID)
			if err != nil {
				closeLogs(pieces, st.cfg.WAL, name)
				unlock()
				return nil, fmt.Errorf("core: rebalance: piece %d wal: %w", p.ID, err)
			}
			p.Recover(l, nil)
		}
	}

	if crashPoint("wals-open", pieces) {
		unlock()
		return nil, errRebalanceCrashed
	}

	// Step 2: seal the pieces (ascending pid, so a crash leaves a
	// contiguous id space). Abort on failure — old layout intact.
	if st.cfg.Snap != nil {
		name := e.dataset.Name
		for i, p := range pieces {
			if _, err := st.cfg.Snap.Save(e.ExportSnapshot(name, p)); err != nil {
				for _, q := range pieces[:i+1] {
					_ = st.cfg.Snap.Remove(name, q.ID)
				}
				closeLogs(pieces, st.cfg.WAL, name)
				unlock()
				return nil, fmt.Errorf("core: rebalance: seal piece %d: %w", p.ID, err)
			}
		}
	}

	if crashPoint("pieces-sealed", pieces) {
		unlock()
		return nil, errRebalanceCrashed
	}

	// Step 3: tombstone the old partitions (an empty store's image at
	// cutSeq, which each becomes at the install), then drop their WALs.
	// Failures roll forward; see file comment.
	var sealErr error
	empties := make([]*Store, len(group))
	for i, p := range group {
		empties[i] = NewStore(e.opts.Trie, nil, nil, cutSeq)
		drop := st.cfg.WAL
		if st.cfg.Snap != nil {
			if _, err := st.cfg.Snap.Save(e.named(empties[i].BaseImage(), e.dataset.Name, p.ID)); err != nil {
				if sealErr == nil {
					sealErr = fmt.Errorf("core: rebalance: tombstone partition %d: %w", p.ID, err)
				}
				drop = nil // keep this partition's WAL: full snapshot + log stay recoverable
			}
		}
		closeLogs([]*Partition{p}, drop, e.dataset.Name)
	}

	if crashPoint("tombstoned", pieces) {
		unlock()
		return nil, errRebalanceCrashed
	}

	// Step 4: memory install — the single atomic commit point for
	// queries and writers.
	for i, p := range group {
		p.retired = true
		p.Store = empties[i]
		p.MBRf, p.MBRl = geom.EmptyMBR(), geom.EmptyMBR()
		stats.Retired = append(stats.Retired, p.ID)
	}
	for _, p := range pieces {
		e.parts = append(e.parts, p)
		for _, t := range p.Trajs {
			st.loc[t.ID] = p.ID
		}
		stats.Created = append(stats.Created, p.ID)
	}
	e.buildGlobalIndex()
	stats.Duration = time.Since(start)
	if e.met != nil {
		_, _, skew := Skew(e.liveLoads())
		e.met.rebalanceObserve(stats.Duration, skew)
	}
	unlock()
	// Retired pids never serve reads again; forget their cost EWMAs so
	// the planner sees only the fresh pieces' signal.
	e.cost.Drop(stats.Retired...)
	return stats, sealErr
}

// validateGroup resolves and sanity-checks the group, and the stores it
// holds now, under the read lock (re-validated under the write lock by the
// caller: a partition retired since holds another store).
func (e *Engine) validateGroup(pids []int) ([]*Partition, []*Store, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.ing == nil {
		return nil, nil, fmt.Errorf("core: rebalance: ingest not enabled")
	}
	sorted := append([]int(nil), pids...)
	sort.Ints(sorted)
	group := make([]*Partition, 0, len(sorted))
	stores := make([]*Store, 0, len(sorted))
	for i, pid := range sorted {
		if pid < 0 || pid >= len(e.parts) {
			return nil, nil, fmt.Errorf("core: rebalance: no partition %d", pid)
		}
		if i > 0 && pid == sorted[i-1] {
			return nil, nil, fmt.Errorf("core: rebalance: duplicate partition %d", pid)
		}
		if e.parts[pid].retired {
			return nil, nil, fmt.Errorf("core: rebalance: partition %d is retired", pid)
		}
		group, stores = append(group, e.parts[pid]), append(stores, e.parts[pid].Store)
	}
	return group, stores, nil
}

// buildPiece constructs one fully-indexed piece: its store's trie build
// re-runs pivot selection over the members' current geometry, and the
// metadata and MBRs are exact.
func (e *Engine) buildPiece(id, workers int, members []*traj.T, watermark uint64) *Partition {
	p := &Partition{ID: id, Worker: id % workers, Store: NewStore(e.opts.Trie, members, nil, watermark)}
	p.MBRf, p.MBRl = EndpointBounds(members)
	return p
}

// OccupancySkew returns the live partitions' occupancy distribution:
// max and mean bytes (base plus unmerged overlay) and their ratio (Skew).
func (e *Engine) OccupancySkew() (max, mean, skew float64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return Skew(e.liveLoads())
}

// liveLoads is the engine's live partitions as the planner sees them: load
// is bytes, base plus unmerged overlay, and members the visible count.
// Callers hold mu.
func (e *Engine) liveLoads() []PartLoad {
	var live []PartLoad
	for _, p := range e.parts {
		if p.retired {
			continue
		}
		l := PartLoad{PID: p.ID, Load: float64(p.Bytes() + p.OverlayBytes()), Members: len(p.View().Visible())}
		if !p.MBRf.IsEmpty() {
			l.Center = p.MBRf.Center()
		}
		live = append(live, l)
	}
	return live
}

// PartLoad is one live partition as the rebalance planner sees it. Each
// host fills it from its own state.
type PartLoad struct {
	PID int
	// Load is what occupancy skew is taken over.
	Load float64
	// Members is the visible member count.
	Members int
	// Center is the center of the members' first-point MBR; a cold merge
	// pairs the nearest.
	Center geom.Point
}

// Skew returns the live partitions' max and mean load and their ratio. A
// skew of 1 is perfectly balanced; 0 means no live partitions or no load.
func Skew(live []PartLoad) (max, mean, skew float64) {
	total := 0.0
	for _, l := range live {
		total += l.Load
		if l.Load > max {
			max = l.Load
		}
	}
	if len(live) == 0 || total == 0 {
		return max, 0, 0
	}
	mean = total / float64(len(live))
	return max, mean, max / mean
}

// RebalancePolicy tunes the planner; zero values take defaults.
type RebalancePolicy struct {
	// SkewBound is the max/mean occupancy ratio above which the planner
	// acts. Default 2.
	SkewBound float64
	// MaxPieces caps a split's fan-out. Default 8.
	MaxPieces int
	// MergeFraction: partitions below MergeFraction·mean occupancy are
	// cold-merge candidates. Default 0.25.
	MergeFraction float64
	// CostBound enables cost-driven splits: a partition whose smoothed
	// per-query verify cost exceeds CostBound times the mean cost (and
	// sits at or above the CostPercentile of the distribution) is split
	// even when byte occupancy is balanced — the paper's cost-division
	// idea applied online to the observed read load. 0 disables.
	CostBound float64
	// CostPercentile is the nearest-rank percentile of the per-partition
	// cost distribution a cost-hot candidate must reach. Default 98.
	CostPercentile float64
}

// Sanitized returns the policy with zero or out-of-range fields replaced
// by the documented defaults.
func (pol RebalancePolicy) Sanitized() RebalancePolicy {
	if pol.SkewBound <= 1 {
		pol.SkewBound = 2
	}
	if pol.MaxPieces < 2 {
		pol.MaxPieces = 8
	}
	if pol.MergeFraction <= 0 || pol.MergeFraction >= 1 {
		pol.MergeFraction = 0.25
	}
	if pol.CostPercentile <= 0 || pol.CostPercentile > 100 {
		pol.CostPercentile = 98
	}
	return pol
}

// RebalanceOnce runs one planner step (PlanRebalance) over the engine's
// byte occupancy and observed read cost: it splits a hot partition or
// merges a cold pair. Returns nil when no action was needed.
func (e *Engine) RebalanceOnce(pol RebalancePolicy) (*RebalanceStats, error) {
	pol = pol.Sanitized()
	// hot and k come from ONE occupancy snapshot: a second OccupancySkew()
	// would read fresh max/mean after concurrent ingest moved them, pairing
	// a stale hot pid with a fan-out computed for a different layout.
	hot, cold, k := -1, []int(nil), 0
	e.mu.RLock()
	if e.ing != nil {
		hot, cold, k = PlanRebalance(e.liveLoads(), e.cost, pol)
	}
	e.mu.RUnlock()
	switch {
	case hot >= 0:
		return e.SplitPartition(hot, k)
	case len(cold) >= 2:
		return e.MergePartitions(cold)
	}
	return nil, nil
}

// Rebalance runs planner steps (Converge) until the skew is within bound
// and no cold merge remains.
func (e *Engine) Rebalance(pol RebalancePolicy) ([]*RebalanceStats, bool, error) {
	return Converge(func() (*RebalanceStats, error) { return e.RebalanceOnce(pol) })
}

// rebalanceMaxSteps caps one Converge call's steps; a var so the
// convergence-reporting tests can shrink the budget.
var rebalanceMaxSteps = 32

// Converge runs a host's planner steps until one has nothing left to do (a
// nil step), one fails, or the step budget runs out. converged is false in
// the last case: work is still planned, the layout may be thrashing (e.g. a
// bound the data cannot satisfy), and callers should back off rather than
// immediately retry.
func Converge[S any](step func() (*S, error)) (steps []*S, converged bool, err error) {
	for range rebalanceMaxSteps {
		st, err := step()
		if err != nil || st == nil {
			return steps, err == nil, err
		}
		steps = append(steps, st)
	}
	return steps, false, nil
}

// PlanRebalance picks a host's next step over one snapshot of its live
// partitions: the hottest partition and its split fan-out (about max/mean
// pieces) when load skew exceeds the bound, else a cost-hot partition when
// the policy enables cost-driven splits, else the coldest partition below
// MergeFraction·mean and its spatially nearest sibling below that bar to
// merge, else (-1, nil, 0). A partition of fewer than two members is never
// split — its one piece would be itself, and the next step would plan the
// same split again. The engine and the coordinator both plan with it.
func PlanRebalance(live []PartLoad, ct *CostTracker, pol RebalancePolicy) (hot int, cold []int, k int) {
	_, mean, skew := Skew(live)
	if len(live) < 2 || mean == 0 {
		return -1, nil, 0
	}
	h := 0
	for i := range live {
		if live[i].Load > live[h].Load {
			h = i
		}
	}
	if skew > pol.SkewBound && live[h].Members > 1 {
		return live[h].PID, nil, min(max(int(math.Round(skew)), 2), pol.MaxPieces)
	}
	// Load is balanced; a partition dominating the observed read cost is
	// still split-worthy (a single-member one is dnet's to promote).
	pids := make([]int, len(live))
	for i, l := range live {
		pids[i] = l.PID
	}
	if pid, k := CostHot(ct, pids, pol); pid >= 0 {
		if i := slices.Index(pids, pid); live[i].Members > 1 {
			return pid, nil, k
		}
	}
	// Cold merge: the coldest partition plus its spatially nearest sibling
	// below the cold bar. Merging raises the mean, which lowers the skew
	// ratio and frees partition slots for future splits.
	bar := pol.MergeFraction * mean
	var coldest *PartLoad
	for i := range live {
		if live[i].Load < bar && (coldest == nil || live[i].Load < coldest.Load) {
			coldest = &live[i]
		}
	}
	if coldest == nil {
		return -1, nil, 0
	}
	var buddy *PartLoad
	bestD := math.Inf(1)
	for i := range live {
		l := &live[i]
		if l.PID == coldest.PID || l.Load >= bar {
			continue
		}
		if d := l.Center.Dist(coldest.Center); d < bestD {
			buddy, bestD = l, d
		}
	}
	if buddy == nil {
		return -1, nil, 0
	}
	return -1, []int{coldest.PID, buddy.PID}, 0
}
