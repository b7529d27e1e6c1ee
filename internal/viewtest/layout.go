package viewtest

import (
	"testing"

	"dita/internal/core"
	"dita/internal/traj"
)

// Layout is one host's dataset layout at one instant, as CheckLayout reads
// it: the view and the location map (core.Layout.View and Locations, taken
// under the host's lock; Loc is nil on a host that accepts no writes), the ids each partition shows (Shows[pid], from
// its store), and — on the engine — the partitions' pinned MBRf, MBRl and
// Retired() mirrors, indexed like the view (nil elsewhere).
type Layout struct {
	View    *core.LayoutView
	Loc     map[int]int
	Shows   [][]int
	Mirrors []core.PartBounds
}

// CheckLayout holds a host's layout to the members it must show, visible
// (id → member): the live counts sum to the visible count and each equals
// what its partition shows; every location names a live partition that
// shows the id, and every visible id has one; every shown member's first
// and last points lie inside its partition's boxes; a retired partition
// has empty boxes and shows nothing; and the mirrors equal the view. The
// engine and the network coordinator both run it after every step of
// their ingest, replay, merge and cutover histories.
func CheckLayout(t testing.TB, got Layout, visible map[int]*traj.T) {
	t.Helper()
	v := got.View
	if len(v.Live) != len(v.Bounds) || len(got.Shows) != len(v.Bounds) || len(v.Epochs.Parts) != len(v.Bounds) {
		t.Fatalf("layout: %d bounds, %d live counts, %d write marks, %d partitions shown",
			len(v.Bounds), len(v.Live), len(v.Epochs.Parts), len(got.Shows))
	}
	sum := 0
	for _, n := range v.Live {
		sum += n
	}
	if sum != v.Visible || v.Visible != len(visible) {
		t.Fatalf("layout: live counts sum to %d, the view says %d visible, the host shows %d", sum, v.Visible, len(visible))
	}
	shownAt := make(map[int]int, len(visible))
	for pid, ids := range got.Shows {
		b := v.Bounds[pid]
		if b.Retired && (!b.MBRf.IsEmpty() || !b.MBRl.IsEmpty() || v.Live[pid] != 0 || len(ids) != 0) {
			t.Fatalf("layout: retired partition %d has boxes %v %v, live count %d, shows %d members",
				pid, b.MBRf, b.MBRl, v.Live[pid], len(ids))
		}
		if v.Live[pid] != len(ids) {
			t.Fatalf("layout: partition %d counts %d live members, shows %d", pid, v.Live[pid], len(ids))
		}
		for _, id := range ids {
			if at, dup := shownAt[id]; dup {
				t.Fatalf("layout: id %d shown by partitions %d and %d", id, at, pid)
			}
			shownAt[id] = pid
			m := visible[id]
			if m == nil {
				t.Fatalf("layout: partition %d shows id %d, which is not visible", pid, id)
			}
			if !b.MBRf.Contains(m.First()) || !b.MBRl.Contains(m.Last()) {
				t.Fatalf("layout: member %d of partition %d lies outside its boxes %v %v", id, pid, b.MBRf, b.MBRl)
			}
		}
	}
	if got.Loc != nil && len(got.Loc) != len(visible) {
		t.Fatalf("layout: %d locations for %d visible members", len(got.Loc), len(visible))
	}
	for id, pid := range got.Loc {
		if at, ok := shownAt[id]; !ok || at != pid || v.Bounds[pid].Retired {
			t.Fatalf("layout: id %d located at partition %d (retired %v), shown by %d (shown %v)",
				id, pid, pid < len(v.Bounds) && v.Bounds[pid].Retired, at, ok)
		}
	}
	if got.Mirrors == nil {
		return
	}
	if len(got.Mirrors) != len(v.Bounds) {
		t.Fatalf("layout: %d mirrors for %d partitions", len(got.Mirrors), len(v.Bounds))
	}
	for pid, m := range got.Mirrors {
		if m != v.Bounds[pid] {
			t.Fatalf("layout: partition %d mirrors %+v, the layout holds %+v", pid, m, v.Bounds[pid])
		}
	}
}
