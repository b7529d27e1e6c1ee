package core

import (
	"testing"

	"dita/internal/geom"
	"dita/internal/traj"
	"dita/internal/wal"
)

func member(id int, first, last geom.Point) *traj.T {
	return &traj.T{ID: id, Points: []geom.Point{first, last}}
}

// twoPartLayout is a tracked layout of two partitions, ids 1–2 in pid 0 and
// 3 in pid 1.
func twoPartLayout() *Layout {
	l := LayoutOf([][]*traj.T{
		{member(1, geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 1}), member(2, geom.Point{X: 2, Y: 2}, geom.Point{X: 3, Y: 3})},
		{member(3, geom.Point{X: 10, Y: 10}, geom.Point{X: 11, Y: 11})},
	})
	l.Track(map[int]int{1: 0, 2: 0, 3: 1})
	return l
}

func insert(t *traj.T) wal.Record {
	return wal.Record{Op: wal.OpInsert, ID: t.ID, Points: t.Points}
}

// TestLayoutAckEpochs: an acked write bumps its partition's mark and, only
// when it grows a box, the bounds epoch and the trees; a view is reused
// until something changes, and a view taken earlier never changes.
func TestLayoutAckEpochs(t *testing.T) {
	l := twoPartLayout()
	v0 := l.View()
	if l.View() != v0 {
		t.Fatal("an unchanged layout built a second view")
	}
	if v0.Visible != 3 || v0.Live[0] != 2 || v0.Live[1] != 1 {
		t.Fatalf("visible %d, live %v; want 3, [2 1]", v0.Visible, v0.Live)
	}
	if l.Ack(0, insert(member(4, geom.Point{X: 1, Y: 1}, geom.Point{X: 2, Y: 2}))) {
		t.Fatal("a write inside the boxes reported growth")
	}
	v1 := l.View()
	if v1 == v0 || v1.Epochs.Bounds != v0.Epochs.Bounds || v1.Epochs.Parts[0] != 1 || v1.Epochs.Parts[1] != 0 {
		t.Fatalf("after an inside write: epochs %+v, was %+v", v1.Epochs, v0.Epochs)
	}
	if v1.RtF != v0.RtF || v1.Visible != 4 {
		t.Fatalf("inside write: trees replaced %v, visible %d", v1.RtF != v0.RtF, v1.Visible)
	}
	if v0.Visible != 3 || v0.Epochs.Parts[0] != 0 {
		t.Fatal("an earlier view changed")
	}
	if !l.Ack(1, insert(member(5, geom.Point{X: 20, Y: 20}, geom.Point{X: 11, Y: 11}))) {
		t.Fatal("a write outside the boxes reported no growth")
	}
	v2 := l.View()
	if v2.Epochs.Bounds != v1.Epochs.Bounds+1 || v2.RtF == v1.RtF || !v2.Bounds[1].MBRf.Contains(geom.Point{X: 20, Y: 20}) {
		t.Fatalf("after growth: bounds epoch %d (was %d), box %v", v2.Epochs.Bounds, v1.Epochs.Bounds, v2.Bounds[1].MBRf)
	}
	// An upsert of a known id in place changes no count; a delete does.
	l.Ack(0, insert(member(1, geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 1})))
	l.Ack(1, wal.Record{Op: wal.OpDelete, ID: 3})
	v3 := l.View()
	if v3.Visible != 4 || v3.Live[0] != 3 || v3.Live[1] != 1 {
		t.Fatalf("after upsert and delete: visible %d, live %v; want 4, [3 1]", v3.Visible, v3.Live)
	}
	if _, ok := l.Locate(3); ok {
		t.Fatal("a deleted id is still located")
	}
}

// TestLayoutSetBoundsEpoch: recomputed bounds replace the trees, and bump
// the bounds epoch only when a box grew.
func TestLayoutSetBoundsEpoch(t *testing.T) {
	l := twoPartLayout()
	e0 := l.View().Epochs.Bounds
	l.SetBounds(0, []*traj.T{member(1, geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 1})})
	if got := l.View().Epochs.Bounds; got != e0 {
		t.Fatalf("a shrink moved the bounds epoch %d → %d", e0, got)
	}
	if b := l.View().Bounds[0]; b.MBRf.Contains(geom.Point{X: 2, Y: 2}) {
		t.Fatalf("shrunken box %v still holds the dropped member", b.MBRf)
	}
	l.SetBounds(0, []*traj.T{member(1, geom.Point{X: -5, Y: 0}, geom.Point{X: 1, Y: 1})})
	if got := l.View().Epochs.Bounds; got != e0+1 {
		t.Fatalf("a growth left the bounds epoch at %d, want %d", got, e0+1)
	}
}

// TestLayoutSeq: one counter over every partition; Unreserve rolls back
// only the last number reserved, and RaiseSeq never lowers it.
func TestLayoutSeq(t *testing.T) {
	l := twoPartLayout()
	l.RaiseSeq(7)
	l.RaiseSeq(3)
	a, b := l.Reserve(), l.Reserve()
	if a != 8 || b != 9 {
		t.Fatalf("reserved %d, %d after a floor of 7", a, b)
	}
	l.Unreserve(a)
	if l.Seq() != 9 {
		t.Fatalf("unreserving a number below the last moved the counter to %d", l.Seq())
	}
	l.Unreserve(b)
	if l.Seq() != 8 {
		t.Fatalf("unreserving the last number left the counter at %d, want 8", l.Seq())
	}
}

// TestLayoutInstall: a cutover retires its group in place and appends the
// pieces at the next pids; routing follows the pieces, ids no piece holds
// leave it, and both the retired marks and the bounds epoch move.
func TestLayoutInstall(t *testing.T) {
	l := twoPartLayout()
	before := l.View().Epochs
	pieces := [][]*traj.T{
		{member(1, geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 1})},
		{member(3, geom.Point{X: 10, Y: 10}, geom.Point{X: 11, Y: 11})},
	}
	created := l.Install([]int{0, 1}, pieces)
	if len(created) != 2 || created[0] != 2 || created[1] != 3 || l.Len() != 4 {
		t.Fatalf("created %v, %d pids; want [2 3], 4", created, l.Len())
	}
	v := l.View()
	for _, pid := range []int{0, 1} {
		b := v.Bounds[pid]
		if !b.Retired || !b.MBRf.IsEmpty() || v.Live[pid] != 0 || v.Epochs.Parts[pid] != before.Parts[pid]+1 {
			t.Fatalf("retired partition %d: %+v, live %d, mark %d", pid, b, v.Live[pid], v.Epochs.Parts[pid])
		}
	}
	if v.Epochs.Bounds != before.Bounds+1 || v.Visible != 2 {
		t.Fatalf("bounds epoch %d (was %d), visible %d", v.Epochs.Bounds, before.Bounds, v.Visible)
	}
	for id, want := range map[int]int{1: 2, 3: 3} {
		if pid, ok := l.Locate(id); !ok || pid != want {
			t.Fatalf("id %d located at %d (%v), want %d", id, pid, ok, want)
		}
	}
	if _, ok := l.Locate(2); ok {
		t.Fatal("an id no piece holds is still located")
	}
	if got := l.Route(member(9, geom.Point{X: 10, Y: 10}, geom.Point{X: 11, Y: 11})); got != 3 {
		t.Fatalf("a new id near piece 3 routed to %d", got)
	}
	if !l.Retired(0) || l.Retired(3) || l.Retired(99) {
		t.Fatal("Retired disagrees with the install")
	}
}
