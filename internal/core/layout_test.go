package core

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"dita/internal/geom"
	"dita/internal/snap"
	"dita/internal/traj"
)

// pointsHeader is what a member's Points holds: where, how long, how much
// room. Comparing two of them with == tells whether a build wrote the
// member (reflect.DeepEqual would compare the points, not where they lie).
type pointsHeader struct {
	data     *geom.Point
	len, cap int
}

func headerOf(t *traj.T) pointsHeader {
	return pointsHeader{unsafe.SliceData(t.Points), len(t.Points), cap(t.Points)}
}

func headersOf(ts []*traj.T) []pointsHeader {
	out := make([]pointsHeader, len(ts))
	for i, t := range ts {
		out[i] = headerOf(t)
	}
	return out
}

// checkSlab fails unless members' Points are consecutive windows of one
// slab in slot order, each capped at its own length.
func checkSlab(t *testing.T, pid int, members []*traj.T) {
	t.Helper()
	n := 0
	for _, m := range members {
		n += len(m.Points)
	}
	if n == 0 {
		return
	}
	slab := unsafe.Slice(unsafe.SliceData(members[0].Points), n)
	off := 0
	for i, m := range members {
		if cap(m.Points) != len(m.Points) {
			t.Fatalf("partition %d slot %d: cap %d != len %d", pid, i, cap(m.Points), len(m.Points))
		}
		if unsafe.SliceData(m.Points) != &slab[off] {
			t.Fatalf("partition %d slot %d: Points does not start where slot %d ends", pid, i, i-1)
		}
		off += len(m.Points)
	}
}

// TestNewEngineAdoptsMembers: after NewEngine every partition's members are
// consecutive windows of one slab in slot order, capped at their lengths,
// holding bit for bit the points they held before the build.
func TestNewEngineAdoptsMembers(t *testing.T) {
	for _, random := range []bool{false, true} {
		d := smallDataset(600, 71)
		clone := make(map[*traj.T]*traj.T, d.Len())
		before := make(map[*traj.T]pointsHeader, d.Len())
		for _, m := range d.Trajs {
			clone[m], before[m] = m.Clone(), headerOf(m)
		}
		opts := smallOpts(3)
		opts.RandomPartition = random
		e, err := NewEngine(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		seen, moved := 0, 0
		for _, p := range e.Partitions() {
			checkSlab(t, p.ID, p.Trajs)
			for _, m := range p.Trajs {
				want, ok := clone[m]
				if !ok {
					t.Fatalf("partition %d holds member %d that is not the dataset's", p.ID, m.ID)
				}
				delete(clone, m)
				if len(m.Points) != len(want.Points) {
					t.Fatalf("member %d: %d points, want %d", m.ID, len(m.Points), len(want.Points))
				}
				for i, pt := range m.Points {
					w := want.Points[i]
					if math.Float64bits(pt.X) != math.Float64bits(w.X) || math.Float64bits(pt.Y) != math.Float64bits(w.Y) {
						t.Fatalf("member %d point %d: %v, want %v", m.ID, i, pt, w)
					}
				}
				if headerOf(m) != before[m] {
					moved++
				}
				seen++
			}
		}
		if seen != d.Len() || len(clone) != 0 {
			t.Fatalf("random=%v: partitions hold %d members, dataset %d", random, seen, d.Len())
		}
		// The generator allocates each member apart: the build must have moved
		// them, or the checks above prove nothing.
		if moved == 0 {
			t.Fatalf("random=%v: no member was re-pointed", random)
		}
	}
}

// TestNewEngineOverPackedMembersWritesNothing: a second engine over the same
// members and grouping, and adoption over a decoded image, leave every
// member's Points exactly as they found it.
func TestNewEngineOverPackedMembersWritesNothing(t *testing.T) {
	d := smallDataset(500, 72)
	first, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	want := headersOf(d.Trajs)
	if _, err := NewEngine(d, smallOpts(3)); err != nil {
		t.Fatal(err)
	}
	if got := headersOf(d.Trajs); !slices.Equal(got, want) {
		t.Fatal("a second engine over adopted members re-pointed them")
	}
	for _, p := range first.Partitions() {
		img, err := snap.Decode(snap.Encode(first.ExportSnapshot("packed", p)))
		if err != nil {
			t.Fatal(err)
		}
		want := headersOf(img.Trajs)
		adopt(img.Trajs)
		if got := headersOf(img.Trajs); !slices.Equal(got, want) {
			t.Fatalf("partition %d: adopting a decoded image re-pointed its members", p.ID)
		}
	}
}

// TestBuiltEngineMatchesRestored: a built engine and the engine restored
// from its own exported images hold the same tries over the same points in
// the same layout, so searches, kNN and the self-join answer byte for byte
// alike and walk identical funnels.
func TestBuiltEngineMatchesRestored(t *testing.T) {
	d := smallDataset(800, 73)
	built, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*snap.Snapshot
	for _, p := range built.Partitions() {
		s, err := snap.Decode(snap.Encode(built.ExportSnapshot("layout", p)))
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	restored, err := NewEngineFromSnapshots(snaps, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	type hit struct {
		id   int
		dist uint64
	}
	hits := func(rs []SearchResult) []hit {
		out := make([]hit, len(rs))
		for i, r := range rs {
			out[i] = hit{r.Traj.ID, math.Float64bits(r.Distance)}
		}
		return out
	}
	for i, q := range d.Trajs[:60] {
		var sb, sr SearchStats
		b, r := hits(built.Search(q, 0.01, &sb)), hits(restored.Search(q, 0.01, &sr))
		if !reflect.DeepEqual(b, r) || sb != sr {
			t.Fatalf("query %d: search differs: built %v %+v, restored %v %+v", i, b, sb, r, sr)
		}
		sb, sr = SearchStats{}, SearchStats{}
		kb, err := built.SearchKNNContext(context.Background(), q, 10, &sb)
		if err != nil {
			t.Fatal(err)
		}
		kr, err := restored.SearchKNNContext(context.Background(), q, 10, &sr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(hits(kb), hits(kr)) || sb != sr {
			t.Fatalf("query %d: kNN differs: built %v %+v, restored %v %+v", i, hits(kb), sb, hits(kr), sr)
		}
	}
	type pair struct {
		t, q int
		dist uint64
	}
	join := func(e *Engine) ([]pair, JoinStats) {
		var js JoinStats
		var out []pair
		for _, p := range e.Join(e, 0.003, DefaultJoinOptions(), &js) {
			out = append(out, pair{p.T.ID, p.Q.ID, math.Float64bits(p.Distance)})
		}
		js.LoadRatio = 0 // the cluster's timing, not the join's work
		return out, js
	}
	pb, jb := join(built)
	pr, jr := join(restored)
	if len(pb) == 0 {
		t.Fatal("the self-join found no pairs")
	}
	if !reflect.DeepEqual(pb, pr) || !reflect.DeepEqual(jb, jr) {
		t.Fatalf("self-join differs: built %d pairs %+v, restored %d pairs %+v", len(pb), jb, len(pr), jr)
	}
}
