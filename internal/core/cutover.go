package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dita/internal/geom"
	"dita/internal/str"
	"dita/internal/traj"
)

// Cutover is online STR re-partitioning, once for both hosts: the visible
// members of a group of live partitions are re-cut with fresh STR
// boundaries into up to k pieces (k = 1 merges), the pieces take fresh
// pids, and the group retires in place. Pids are never reused — they key
// WAL and snapshot files, the location map, replica lists and serve-cache
// epoch vectors — so no pid ever re-points at different data.
//
// The protocol (DESIGN.md §14), one cutover per dataset at a time:
//
//  1. Validate the group under mu (Layout.Group).
//  2. Freeze: the host fences the group's writers and hands over its
//     visible members. Writers elsewhere and every query proceed.
//  3. Read the cut sequence and the first fresh pid under mu: every record
//     the group logged is at or below it, and the pieces start there.
//  4. Cut: str.Cut over the members' first points, Assign, drop empty
//     tiles; a group whose members were all deleted gets one empty piece.
//     A split whose members all land in one piece is a no-op: nothing is
//     staged or installed, and Cutover returns (nil, nil).
//  5. Stage: the host makes the pieces durable (engine) or loaded (dnet),
//     off mu. An error aborts with the old layout intact; the host has
//     undone its own work.
//  6. Publish under mu: Layout.Install and the host's own state, one
//     critical section, so a query sees the old layout or the new one.
//  7. Release the fence; forget the retired pids' read costs.
//
// mu is never held across an export, a trie build, a seal or a load.
type CutoverHooks struct {
	// Freeze fences the group's writers and returns its visible members;
	// release lifts the fence once the cutover is published or abandoned.
	Freeze func(group []int) (visible []*traj.T, release func(), err error)
	// Stage makes the pieces ready to serve. On err nothing is installed.
	// rollForward is an error that does not stop the install and is
	// returned beside the stats.
	Stage func(pieces []Piece, cutSeq uint64) (rollForward, err error)
	// Publish installs the host's own state under mu, after the layout's,
	// and returns the live partitions' loads, which the skew is taken over.
	Publish func(group []int, pieces []Piece) []PartLoad
}

// Piece is one tile of a cutover: the fresh pid it is installed at and
// its members.
type Piece struct {
	PID     int
	Members []*traj.T
}

// Cutover re-cuts the group pids of lay's dataset into up to k pieces: a
// split is one pid and k >= 2, a merge several pids and k = 1. mu is the
// host lock lay lives under, cost its read-cost tracker.
func Cutover(lay *Layout, mu sync.Locker, cost *CostTracker, pids []int, k int, h CutoverHooks) (*RebalanceStats, error) {
	start := time.Now()
	if len(pids) < 2 && k < 2 {
		return nil, fmt.Errorf("core: cutover: %d pid(s) into %d piece(s), need a split into >= 2 or a merge of >= 2", len(pids), k)
	}
	// Cutovers take several partitions' fences; two over overlapping
	// groups would deadlock, and this lock makes the group stay live.
	lay.cut.Lock()
	defer lay.cut.Unlock()
	mu.Lock()
	group, err := lay.Group(pids)
	mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("core: cutover: %w", err)
	}
	visible, release, err := h.Freeze(group)
	if err != nil {
		return nil, err
	}
	defer release()
	mu.Lock()
	cutSeq, base := lay.Seq(), lay.Len()
	mu.Unlock()

	// The plan is total, so trajectories ingested after the cut (routed by
	// nearest box) and the pieces' exact boxes stay consistent.
	firsts := make([]geom.Point, len(visible))
	for i, t := range visible {
		firsts[i] = t.First()
	}
	plan := str.Cut(firsts, k)
	var pieces []Piece
	for _, tile := range plan.Assign(firsts) {
		if len(tile) == 0 {
			continue
		}
		members := make([]*traj.T, len(tile))
		for i, j := range tile {
			members[i] = visible[j]
		}
		pieces = append(pieces, Piece{PID: base + len(pieces), Members: members})
	}
	switch {
	case len(group) == 1 && len(pieces) <= 1:
		// Members sharing one first point are inseparable by a coordinate
		// cut; re-cutting them into one identical piece would thrash.
		return nil, nil
	case len(pieces) == 0:
		// The dataset keeps a live partition to route to.
		pieces = []Piece{{PID: base}}
	}

	rollForward, err := h.Stage(pieces, cutSeq)
	if err != nil {
		return nil, err
	}
	members := make([][]*traj.T, len(pieces))
	for i, pc := range pieces {
		members[i] = pc.Members
	}
	st := &RebalanceStats{Retired: group, Trajs: len(visible), Plan: plan}
	mu.Lock()
	st.Created = lay.Install(group, members)
	_, _, st.Skew = Skew(h.Publish(group, pieces))
	mu.Unlock()
	// Retired pids never serve reads again; the planner sees only the
	// pieces' cost signal.
	cost.Drop(group...)
	st.Duration = time.Since(start)
	return st, rollForward
}

// cutoverHook, when set, is consulted at each named durability boundary of
// a cutover's Stage.
var cutoverHook atomic.Pointer[func(string) bool]

// SetCutoverHook makes f run at each named boundary of every cutover's
// Stage — the engine's "wals-open", "pieces-sealed" and "tombstoned", dnet's
// "pieces-loaded" — until restore is called. f returning true simulates a
// crash there (CutoverCrash); f may also block to hold a cutover open.
// Test-only: nothing else may set it.
func SetCutoverHook(f func(stage string) bool) (restore func()) {
	cutoverHook.Store(&f)
	return func() { cutoverHook.Store(nil) }
}

// ErrCutoverCrashed is the error of a cutover the hook stopped.
var ErrCutoverCrashed = errors.New("core: cutover: simulated crash")

// CutoverCrash consults the hook at stage: ErrCutoverCrashed when it
// simulates a crash there, else nil. A Stage that gets the error returns it
// and leaves what it did in place, as a power cut would.
func CutoverCrash(stage string) error {
	if f := cutoverHook.Load(); f != nil && (*f)(stage) {
		return ErrCutoverCrashed
	}
	return nil
}
