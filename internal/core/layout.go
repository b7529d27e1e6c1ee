package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/rtree"
	"dita/internal/traj"
	"dita/internal/wal"
)

// Layout is one dataset's partition layout, held by the engine and by the
// network coordinator alike: the global index (§4.2.2: each partition's
// first- and last-point boxes and the R-trees over them), visible counts,
// write epochs, where each trajectory lives and one sequence counter —
// monotone across partitions, hence per partition, which is all a store's
// dedupe floor and watermark skip need. Its methods take no lock: every one
// runs under the host's (Engine.mu, a dispatched dataset's mu), the exclusive
// side to change it, and a query reads the View it took there off the lock.
// The one lock it holds is Cutover's, one cutover per dataset at a time.
type Layout struct {
	bounds      []PartBounds
	live        []int    // visible members per partition
	marks       []uint64 // acked writes per partition
	boundsEpoch uint64
	rtF, rtL    *rtree.Tree
	loc         map[int]int // id → the partition showing it; nil until Track
	seq         uint64
	// view is built by the first View after a change; readers under a
	// shared lock may race to build the same value.
	view atomic.Pointer[LayoutView]
	cut  sync.Mutex
}

// LayoutView is one immutable instant of a Layout, indexed by partition id.
type LayoutView struct {
	Bounds []PartBounds
	// Live is each partition's visible member count; Visible their sum.
	Live     []int
	Visible  int
	RtF, RtL *rtree.Tree // over the live partitions' MBRf and MBRl
	Epochs   EpochView
}

// EpochView is a point-in-time snapshot of a dataset's write epochs, the
// currency of result-cache invalidation (internal/serve). Parts[pid] counts
// acked writes to the partition; Bounds counts the changes that grew any
// partition's boxes or replaced partitions. Both only advance, so an answer
// computed at epochs E is current while Bounds and the Parts of every
// partition its touched set covers still equal E's (growth can make a
// partition newly relevant to a query that pruned it).
type EpochView struct {
	Bounds uint64
	Parts  []uint64
}

// NewLayout returns the layout of partitions with the given bounds and
// visible counts. It accepts no writes until Track.
func NewLayout(bounds []PartBounds, live []int) *Layout {
	l := &Layout{bounds: bounds, live: live, marks: make([]uint64, len(bounds))}
	l.index()
	return l
}

// LayoutOf is the layout of a freshly cut dataset: partition pid holds
// groups[pid].
func LayoutOf(groups [][]*traj.T) *Layout {
	bounds := make([]PartBounds, len(groups))
	live := make([]int, len(groups))
	for pid, g := range groups {
		bounds[pid].MBRf, bounds[pid].MBRl = EndpointBounds(g)
		live[pid] = len(g)
	}
	return NewLayout(bounds, live)
}

// index rebuilds the R-trees — the one place they are built, replaced so an
// older view stays usable — and drops the view.
func (l *Layout) index() {
	ef := make([]rtree.Entry, 0, len(l.bounds))
	el := make([]rtree.Entry, 0, len(l.bounds))
	for pid, b := range l.bounds {
		if !b.Retired {
			ef = append(ef, rtree.Entry{MBR: b.MBRf, ID: pid})
			el = append(el, rtree.Entry{MBR: b.MBRl, ID: pid})
		}
	}
	l.rtF, l.rtL = rtree.New(ef), rtree.New(el)
	l.view.Store(nil)
}

// View returns the layout as it is now.
func (l *Layout) View() *LayoutView {
	if v := l.view.Load(); v != nil {
		return v
	}
	v := &LayoutView{
		Bounds: append([]PartBounds(nil), l.bounds...),
		Live:   append([]int(nil), l.live...),
		RtF:    l.rtF, RtL: l.rtL,
		Epochs: EpochView{Bounds: l.boundsEpoch, Parts: append([]uint64(nil), l.marks...)},
	}
	for _, n := range l.live {
		v.Visible += n
	}
	l.view.CompareAndSwap(nil, v)
	return v
}

// Relevant returns, ascending, the partitions a threshold search at tau
// cannot exclude: the live ones whose PartitionLowerBound is within tau.
// For an endpoint-anchored measure the two R-trees narrow the partitions
// the bound is computed for — a sum or a maximum of two distances within
// tau has both within tau — and never decide.
func (v *LayoutView) Relevant(m measure.Measure, q []geom.Point, tau float64) []int {
	if len(q) == 0 {
		return nil
	}
	var out []int
	relevant := func(pid int) bool {
		b := &v.Bounds[pid]
		return !b.Retired && PartitionLowerBound(m, q, b.MBRf, b.MBRl) <= tau
	}
	if !m.AlignsEndpoints() {
		for pid := range v.Bounds {
			if relevant(pid) {
				out = append(out, pid)
			}
		}
		return out
	}
	nearF := make([]bool, len(v.Bounds))
	for _, en := range v.RtF.WithinDist(q[0], tau, nil) {
		nearF[en.ID] = true
	}
	for _, en := range v.RtL.WithinDist(q[len(q)-1], tau, nil) {
		if nearF[en.ID] && relevant(en.ID) {
			out = append(out, en.ID)
		}
	}
	sort.Ints(out)
	return out
}

// Len returns the number of partition ids, retired ones included.
func (l *Layout) Len() int { return len(l.bounds) }

// Retired reports whether pid names a partition a cutover retired.
func (l *Layout) Retired(pid int) bool {
	return pid >= 0 && pid < len(l.bounds) && l.bounds[pid].Retired
}

// Group validates a cutover's group: its pids ascending, each a live
// partition, none twice.
func (l *Layout) Group(pids []int) ([]int, error) {
	group := slices.Clone(pids)
	slices.Sort(group)
	for i, pid := range group {
		switch {
		case pid < 0 || pid >= len(l.bounds):
			return nil, fmt.Errorf("no partition %d", pid)
		case i > 0 && pid == group[i-1]:
			return nil, fmt.Errorf("duplicate partition %d", pid)
		case l.bounds[pid].Retired:
			return nil, fmt.Errorf("partition %d is retired", pid)
		}
	}
	return group, nil
}

// Loads is the live partitions as the rebalance planner sees them, Load the
// visible count unless the host overwrites it.
func (l *Layout) Loads() []PartLoad {
	var out []PartLoad
	for pid, b := range l.bounds {
		if b.Retired {
			continue
		}
		pl := PartLoad{PID: pid, Load: float64(l.live[pid]), Members: l.live[pid]}
		if !b.MBRf.IsEmpty() {
			pl.Center = b.MBRf.Center()
		}
		out = append(out, pl)
	}
	return out
}

// Track makes the layout accept writes, taking loc (every visible id → its
// partition) and recounting the visible counts from it.
func (l *Layout) Track(loc map[int]int) {
	l.loc = loc
	clear(l.live)
	for _, pid := range loc {
		l.live[pid]++
	}
	l.view.Store(nil)
}

// Locations returns a copy of the id → partition map (nil before Track).
func (l *Layout) Locations() map[int]int { return maps.Clone(l.loc) }

// Locate returns the partition showing trajectory id.
func (l *Layout) Locate(id int) (int, bool) {
	pid, ok := l.loc[id]
	return pid, ok
}

// Route returns the partition a write of t goes to: the one showing its id
// (an id's history stays in one log), else nearest.
func (l *Layout) Route(t *traj.T) int {
	if pid, ok := l.loc[t.ID]; ok {
		return pid
	}
	return l.nearest(t)
}

// nearest is the live partition whose boxes are jointly nearest t's
// endpoints — the STR cell it would have landed in at partitioning,
// distance 0 inside both boxes — ties to the lower id; -1 when none is live.
func (l *Layout) nearest(t *traj.T) int {
	first, last := t.First(), t.Last()
	best, bestD := -1, math.Inf(1)
	for pid, b := range l.bounds {
		if b.Retired {
			continue
		}
		if d := b.MBRf.MinDist(first) + b.MBRl.MinDist(last); best < 0 || d < bestD {
			best, bestD = pid, d
		}
	}
	return best
}

// Seq returns the last sequence number reserved.
func (l *Layout) Seq() uint64 { return l.seq }

// RaiseSeq lifts the counter to the highest number a partition logged or
// folded: a store would skip a lower one.
func (l *Layout) RaiseSeq(seq uint64) { l.seq = max(l.seq, seq) }

// Reserve returns a fresh sequence number.
func (l *Layout) Reserve() uint64 {
	l.seq++
	return l.seq
}

// Unreserve hands back the number of a write that reached no log; it stays
// burned if a later one was reserved (gaps are fine, regressions are not).
// A host whose failed write may have reached a replica must not call it.
func (l *Layout) Unreserve(seq uint64) {
	if l.seq == seq {
		l.seq = seq - 1
	}
}

// Ack records an acknowledged write r to partition pid: the id's location,
// the visible counts, the write mark and — for an insert outside the
// partition's boxes — the grown boxes, a bounds epoch and new trees. It
// reports whether the boxes grew.
func (l *Layout) Ack(pid int, r wal.Record) bool {
	l.marks[pid]++
	l.view.Store(nil)
	at, known := l.loc[r.ID]
	if known && (r.Op == wal.OpDelete || at != pid) {
		delete(l.loc, r.ID)
		l.live[at]--
		known = false
	}
	if r.Op == wal.OpDelete {
		return false
	}
	if !known {
		l.loc[r.ID] = pid
		l.live[pid]++
	}
	b := &l.bounds[pid]
	nf, nl := b.MBRf.Extend(r.Points[0]), b.MBRl.Extend(r.Points[len(r.Points)-1])
	if nf == b.MBRf && nl == b.MBRl {
		return false
	}
	b.MBRf, b.MBRl = nf, nl
	l.boundsEpoch++
	l.index()
	return true
}

// SetBounds recomputes partition pid's boxes over visible, the members it
// shows (a merge may shrink them, a replay grow them). Only growth bumps
// the bounds epoch: a shrunken box prunes more, and answers cached against
// the larger one stay sound.
func (l *Layout) SetBounds(pid int, visible []*traj.T) {
	b := &l.bounds[pid]
	mbrF, mbrL := EndpointBounds(visible)
	if b.MBRf == mbrF && b.MBRl == mbrL {
		return
	}
	if !b.MBRf.Covers(mbrF) || !b.MBRl.Covers(mbrL) {
		l.boundsEpoch++
	}
	b.MBRf, b.MBRl = mbrF, mbrL
	l.index()
}

// Install publishes a cutover and returns the pieces' pids: the retired
// partitions are emptied in place with a write mark each, every id they
// showed is dropped — the pieces are the authority now — and the pieces are
// appended at the next pids, their ids pointed at them.
func (l *Layout) Install(retired []int, pieces [][]*traj.T) []int {
	gone := make(map[int]bool, len(retired))
	for _, pid := range retired {
		l.bounds[pid] = PartBounds{MBRf: geom.EmptyMBR(), MBRl: geom.EmptyMBR(), Retired: true}
		l.live[pid] = 0
		l.marks[pid]++
		gone[pid] = true
	}
	maps.DeleteFunc(l.loc, func(_, pid int) bool { return gone[pid] })
	created := make([]int, len(pieces))
	for i, members := range pieces {
		pid := len(l.bounds)
		var b PartBounds
		b.MBRf, b.MBRl = EndpointBounds(members)
		l.bounds, l.live, l.marks = append(l.bounds, b), append(l.live, len(members)), append(l.marks, 0)
		for _, t := range members {
			l.loc[t.ID] = pid
		}
		created[i] = pid
	}
	l.boundsEpoch++
	l.index()
	return created
}

// Follow moves the bounds epoch past prev's, for a layout replacing another
// of the same dataset: every answer cached against the old one goes stale.
func (l *Layout) Follow(prev EpochView) {
	l.boundsEpoch = max(l.boundsEpoch, prev.Bounds+1)
	l.view.Store(nil)
}
