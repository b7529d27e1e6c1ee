package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"dita/internal/geom"
	"dita/internal/str"
	"dita/internal/traj"
	"dita/internal/wal"
)

// This file is the engine's host of a cutover (Cutover, cutover.go) and
// the rebalance planner both hosts share.
//
// Durability ordering (the crash matrix; DESIGN.md §14). The engine's Stage
// runs under the group's fold holds and append locks, not the engine lock,
// so no fold or write lands in the group while queries and writes to other
// partitions proceed:
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
//  4. Publish: swap the old partitions' stores for the empty ones and
//     append the pieces, under the engine lock with the Layout's Install.
//     Only after this can a write route to a piece, so a piece's WAL can
//     never hold records while an old full snapshot is still live.
//
// An error in step 1 or 2 aborts the cutover (pieces removed, old layout
// untouched). An error in step 3 rolls forward — the memory cutover
// installs anyway and the error is reported — because the first
// tombstone seal already made the new layout durable for part of the
// group; the affected partition keeps its full snapshot AND its WAL, so
// its content stays exactly recoverable.

// ErrRebalanceBusy is returned when a group member has a merge fold in
// flight; the caller should retry after the merge completes.
var ErrRebalanceBusy = errors.New("core: rebalance: merge in flight")

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

// RebalanceStats reports one split/merge cutover, on either host.
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
	// Skew is the dataset's occupancy skew after the cutover.
	Skew float64
	// Duration is the wall-clock cutover time, sealing or shipping
	// included.
	Duration time.Duration
}

// SplitPartition re-cuts one partition's visible members into up to k
// pieces with fresh STR boundaries and freshly selected pivots,
// retiring the original. A split whose members all share one piece is a
// no-op and returns nil stats.
func (e *Engine) SplitPartition(pid, k int) (*RebalanceStats, error) {
	return e.cutover([]int{pid}, k)
}

// MergePartitions folds several partitions' visible members into one
// fresh partition (re-built trie, re-selected pivots, exact MBRs),
// retiring the originals.
func (e *Engine) MergePartitions(pids []int) (*RebalanceStats, error) {
	return e.cutover(pids, 1)
}

// cutover runs Cutover with the engine's hooks; see the file comment for
// the durability ordering.
func (e *Engine) cutover(pids []int, k int) (*RebalanceStats, error) {
	var (
		st      *ingestState
		retired []*Partition
		stores  []*Store
		built   []*Partition
		empties []*Store
	)
	name := e.dataset.Name
	crash := func(stage string) error {
		err := CutoverCrash(stage)
		if err != nil {
			closeLogs(built, nil, "") // the files stay, as across a real crash
		}
		return err
	}
	stats, err := Cutover(e.lay, &e.mu, e.cost, pids, k, CutoverHooks{
		Freeze: func(group []int) ([]*traj.T, func(), error) {
			e.mu.RLock()
			st = e.ing
			for _, pid := range group {
				retired, stores = append(retired, e.parts[pid]), append(stores, e.parts[pid].Store)
			}
			e.mu.RUnlock()
			if st == nil {
				return nil, nil, fmt.Errorf("core: rebalance: ingest not enabled")
			}
			// The store lock order, ascending pid: every fold hold (a fold in
			// flight makes the group busy), then every append lock.
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
					return nil, nil, ErrRebalanceBusy
				}
				held = append(held, r)
			}
			for _, s := range stores {
				s.LockAppend()
				held = append(held, s.UnlockAppend)
			}
			var visible []*traj.T
			for _, s := range stores {
				members, _ := s.Visible()
				visible = append(visible, members...)
			}
			return visible, release, nil
		},
		Stage: func(pieces []Piece, cutSeq uint64) (error, error) {
			// Step 1: each piece's store re-runs pivot selection over its
			// members' current geometry; its bounds are the layout's.
			W := e.cl.Workers()
			for _, pc := range pieces {
				built = append(built, &Partition{ID: pc.PID, Worker: pc.PID % W,
					Store: NewStore(e.opts.Trie, pc.Members, nil, cutSeq)})
			}
			if w := st.cfg.WAL; w != nil {
				for _, p := range built {
					_ = w.Remove(name, p.ID)
					l, _, err := w.Open(name, p.ID)
					if err != nil {
						closeLogs(built, w, name)
						return nil, fmt.Errorf("core: rebalance: piece %d wal: %w", p.ID, err)
					}
					p.Recover(l, nil)
				}
			}
			if err := crash("wals-open"); err != nil {
				return nil, err
			}
			// Step 2, ascending pid so a crash leaves a contiguous id space.
			if s := st.cfg.Snap; s != nil {
				for i, p := range built {
					if _, err := s.Save(e.ExportSnapshot(name, p)); err != nil {
						for _, q := range built[:i+1] {
							_ = s.Remove(name, q.ID)
						}
						closeLogs(built, st.cfg.WAL, name)
						return nil, fmt.Errorf("core: rebalance: seal piece %d: %w", p.ID, err)
					}
				}
			}
			if err := crash("pieces-sealed"); err != nil {
				return nil, err
			}
			// Step 3: an empty store's image at cutSeq, which each old
			// partition becomes at the publish; then drop its WAL.
			var sealErr error
			for i, p := range retired {
				empties = append(empties, NewStore(e.opts.Trie, nil, nil, cutSeq))
				drop := st.cfg.WAL
				if s := st.cfg.Snap; s != nil {
					if _, err := s.Save(e.named(empties[i].BaseImage(), name, p.ID)); err != nil {
						if sealErr == nil {
							sealErr = fmt.Errorf("core: rebalance: tombstone partition %d: %w", p.ID, err)
						}
						drop = nil // keep this partition's WAL: full snapshot + log stay recoverable
					}
				}
				_ = stores[i].CloseLog()
				if drop != nil {
					_ = drop.Remove(name, p.ID)
				}
			}
			return sealErr, crash("tombstoned")
		},
		Publish: func([]int, []Piece) []PartLoad {
			for i, p := range retired {
				p.Store = empties[i]
			}
			e.parts = append(e.parts, built...)
			e.mirror()
			return e.liveLoads()
		},
	})
	if stats != nil {
		e.met.rebalanceObserve(stats.Duration, stats.Skew)
	}
	return stats, err
}

// OccupancySkew returns the live partitions' occupancy distribution:
// max and mean bytes (base plus unmerged overlay) and their ratio (Skew).
func (e *Engine) OccupancySkew() (max, mean, skew float64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return Skew(e.liveLoads())
}

// liveLoads is the engine's live partitions as the planner sees them: load
// is bytes, base plus unmerged overlay. Callers hold mu.
func (e *Engine) liveLoads() []PartLoad {
	loads := e.lay.Loads()
	for i := range loads {
		p := e.parts[loads[i].PID]
		loads[i].Load = float64(p.Bytes() + p.OverlayBytes())
	}
	return loads
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
	// The group and k come from ONE occupancy snapshot: a second
	// OccupancySkew() would read fresh max/mean after concurrent ingest
	// moved them, pairing a stale hot pid with a fan-out computed for a
	// different layout.
	var pids []int
	k := 0
	e.mu.RLock()
	if e.ing != nil {
		pids, k = PlanRebalance(e.liveLoads(), e.cost, pol.Sanitized())
	}
	e.mu.RUnlock()
	if pids == nil {
		return nil, nil
	}
	return e.cutover(pids, k)
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
func Converge(step func() (*RebalanceStats, error)) (steps []*RebalanceStats, converged bool, err error) {
	for range rebalanceMaxSteps {
		st, err := step()
		if err != nil || st == nil {
			return steps, err == nil, err
		}
		steps = append(steps, st)
	}
	return steps, false, nil
}

// PlanRebalance picks a host's next cutover (Cutover's pids and k) over one
// snapshot of its live partitions: the hottest partition and its split
// fan-out (about max/mean pieces) when load skew exceeds the bound, else a
// cost-hot partition when the policy enables cost-driven splits, else the
// coldest partition below MergeFraction·mean and its spatially nearest
// sibling below that bar to merge (k = 1), else (nil, 0). A partition of
// fewer than two members is never split — its one piece would be itself.
// The engine and the coordinator both plan with it.
func PlanRebalance(live []PartLoad, ct *CostTracker, pol RebalancePolicy) (pids []int, k int) {
	_, mean, skew := Skew(live)
	if len(live) < 2 || mean == 0 {
		return nil, 0
	}
	h := 0
	for i := range live {
		if live[i].Load > live[h].Load {
			h = i
		}
	}
	if skew > pol.SkewBound && live[h].Members > 1 {
		return []int{live[h].PID}, min(max(int(math.Round(skew)), 2), pol.MaxPieces)
	}
	// Load is balanced; a partition dominating the observed read cost is
	// still split-worthy (a single-member one is dnet's to promote).
	all := make([]int, len(live))
	for i, l := range live {
		all[i] = l.PID
	}
	if pid, k := CostHot(ct, all, pol); pid >= 0 {
		if i := slices.Index(all, pid); live[i].Members > 1 {
			return []int{pid}, k
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
		return nil, 0
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
		return nil, 0
	}
	return []int{coldest.PID, buddy.PID}, 1
}
