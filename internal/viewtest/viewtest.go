// Package viewtest checks every read over a core.View against the oracle's
// answers over the members the view must show. It is one test body for both
// hosts of the partition store: internal/core runs it over an engine
// partition's view, internal/dnet over a worker partition's, each after
// applying the same mutation histories through its own write path.
package viewtest

import (
	"context"
	"math"
	"runtime"
	"testing"

	"dita/internal/core"
	"dita/internal/gen"
	"dita/internal/measure"
	"dita/internal/oracle"
	"dita/internal/traj"
)

// Fixture is the data both hosts run Check on: a base partition, members
// to ingest (ids past the base's) and queries — a base member, an ingested
// one and one that is neither.
func Fixture() (base, fresh, queries []*traj.T) {
	base = gen.Generate(gen.BeijingLike(60, 71)).Trajs
	for i, t := range gen.Generate(gen.BeijingLike(8, 72)).Trajs {
		fresh = append(fresh, &traj.T{ID: 1000 + i, Points: t.Points})
	}
	return base, fresh, []*traj.T{base[7], fresh[0], stranger()}
}

func stranger() *traj.T {
	return &traj.T{ID: -1, Points: gen.Generate(gen.BeijingLike(1, 73)).Trajs[0].Points}
}

// BigFixture is a base large enough that copying it would dominate a
// search's allocations, one member to ingest, and queries off the data.
func BigFixture() (base []*traj.T, fresh *traj.T, queries []*traj.T) {
	base = gen.Generate(gen.BeijingLike(4000, 74)).Trajs
	return base, &traj.T{ID: 100000, Points: stranger().Points}, gen.OutlierQueries(traj.NewDataset("big", base), 75)
}

// Measures returns every measure measure.ByName resolves.
func Measures(t *testing.T) []measure.Measure {
	var ms []measure.Measure
	for _, name := range []string{"DTW", "FRECHET", "EDR", "LCSS", "ERP", "HAUSDORFF"} {
		m, err := measure.ByName(name, 0.002, 5)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// Op is one mutation: an upsert of T, or a delete of ID when T is nil.
type Op struct {
	T  *traj.T
	ID int
}

// Upserts is one upsert per trajectory.
func Upserts(ts ...*traj.T) (ops []Op) {
	for _, t := range ts {
		ops = append(ops, Op{T: t, ID: t.ID})
	}
	return ops
}

// History is a named mutation sequence over a base partition.
type History struct {
	Name string
	Ops  []Op
}

// Histories returns the overlay shapes every host must read correctly, as
// mutations of base (at least 3 members) drawing new members from fresh (at
// least 5, ids disjoint from base's). Both hosts apply them through one
// store, so any delta member may be deleted or updated: the delta keeps
// apply order, and an update moves its member to the end.
func Histories(base, fresh []*traj.T) []History {
	update := &traj.T{ID: base[1].ID, Points: fresh[3].Points}
	again := &traj.T{ID: base[2].ID, Points: fresh[4].Points}
	moved := &traj.T{ID: fresh[0].ID, Points: fresh[3].Points}
	return []History{
		{"no overlay", nil},
		{"delta only", Upserts(fresh[:3]...)},
		{"tombstones only", []Op{{ID: base[0].ID}, {ID: base[2].ID}}},
		{"upsert supersedes base", Upserts(update)},
		{"delete of a delta member", append(Upserts(fresh[:3]...), Op{ID: fresh[1].ID})},
		{"delete of the first and last delta members", append(Upserts(fresh[:3]...), Op{ID: fresh[0].ID}, Op{ID: fresh[2].ID})},
		{"base delete then re-insert", []Op{{ID: again.ID}, {T: again, ID: again.ID}}},
		{"upsert of a delta member", append(Upserts(fresh[:3]...), Upserts(moved)...)},
	}
}

// MidMerge is the overlay a fold leaves while it runs: pre is applied
// before the fold rotates it into the frozen pair (three fresh members and
// a base delete), window while the fold is held open — an upsert and a
// delete of frozen members, another base delete and a fresh insert — so
// the view shows the frozen member neither touched, then the two members
// of the new delta (fresh needs at least 6 members).
func MidMerge(base, fresh []*traj.T) (pre, window []Op) {
	pre = append(Upserts(fresh[:3]...), Op{ID: base[0].ID})
	window = []Op{{T: &traj.T{ID: fresh[0].ID, Points: fresh[4].Points}, ID: fresh[0].ID},
		{ID: fresh[1].ID}, {ID: base[3].ID}, {T: fresh[5], ID: fresh[5].ID}}
	return pre, window
}

// Visible replays the history over base: the members a view must show, in
// slot order — base members as the base has them, then overlay members as
// they were inserted.
func (h History) Visible(base []*traj.T) []*traj.T {
	vis := append([]*traj.T(nil), base...)
	for _, op := range h.Ops {
		kept := vis[:0]
		for _, t := range vis {
			if t.ID != op.ID {
				kept = append(kept, t)
			}
		}
		if vis = kept; op.T != nil {
			vis = append(vis, op.T)
		}
	}
	return vis
}

// Check holds v to want (ids unique), member for member and in slot order,
// and every read over it to the oracle's answer over want under m: Select and
// Visible, Search at τ = 0, at a member's own nonzero distance (the member
// must survive the tie), between two members' distances and past every
// member's, KNNScan at k = 1 and k past the visible count.
func Check(t *testing.T, m measure.Measure, v *core.View, want, queries []*traj.T) {
	t.Helper()
	ctx := context.Background()
	ts, meta, slots, err := v.Select(ctx, nil)
	vis := v.Visible()
	if err != nil || len(ts) != len(want) || len(vis) != len(want) {
		t.Fatalf("view shows %d members (Visible: %d, err %v), want %d", len(ts), len(vis), err, len(want))
	}
	for i, w := range want {
		at, atMeta := v.At(slots[i])
		if ts[i].ID != w.ID || vis[i] != ts[i] || at != ts[i] || meta[i] != atMeta ||
			meta[i] != core.NewVerifyMeta(w, 0) || (i > 0 && slots[i] <= slots[i-1]) {
			t.Fatalf("slot order: member %d is id %d at slot %d, want id %d", i, ts[i].ID, slots[i], w.ID)
		}
	}
	for _, q := range queries {
		order := oracle.KNN(want, m, q, len(want)) // every member by (distance, id)
		lo, far := order[len(order)/3].Distance, order[len(order)-1].Distance
		mid := lo + 0.5
		for _, h := range order {
			if h.Distance > lo {
				mid = (lo + h.Distance) / 2
				break
			}
		}
		tie := far
		for _, h := range order[len(order)/3:] {
			if h.Distance > 0 {
				tie = h.Distance
				break
			}
		}
		for _, tau := range []float64{0, tie, mid, 2*far + 1} {
			res, st, err := v.Search(ctx, m, q.Points, tau, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			hits := oracle.Search(want, m, q, tau)
			if err := oracle.DiffSearch(oracle.SortByID(hitsOf(res)), hits); err != nil {
				t.Errorf("%s q%d τ=%v: %v", m.Name(), q.ID, tau, err)
			}
			if f := st.Funnel; !f.Monotone() || f.Considered != int64(v.Len()) || f.Matched != int64(len(hits)) {
				t.Errorf("%s q%d τ=%v: funnel %+v over %d slots, %d hits", m.Name(), q.ID, tau, f, v.Len(), len(hits))
			}
		}
		for _, k := range []int{1, len(want) + 2} {
			acc := core.NewKNNAcc(k)
			f, err := v.KNNScan(ctx, m, q.Points, acc, math.Inf(1))
			if err != nil {
				t.Fatal(err)
			}
			if !f.Monotone() {
				t.Fatalf("%s q%d k=%d: funnel %+v", m.Name(), q.ID, k, f)
			}
			if err := oracle.DiffKNN(hitsOf(acc.Results()), oracle.KNN(want, m, q, k)); err != nil {
				t.Errorf("%s q%d k=%d: %v", m.Name(), q.ID, k, err)
			}
		}
	}
}

// hitsOf is the adapter from a view's answers to the oracle's.
func hitsOf(rs []core.SearchResult) []oracle.Hit {
	out := make([]oracle.Hit, len(rs))
	for i, r := range rs {
		out[i] = oracle.Hit{ID: r.Traj.ID, Distance: r.Distance}
	}
	return out
}

// CheckBaseAliased holds v — a view with an overlay — to the rule that a
// view may allocate O(overlay) and never O(base): its base is the
// partition's own backing arrays, and a search over it allocates less than
// one pointer per base member.
func CheckBaseAliased(t *testing.T, m measure.Measure, v *core.View, base []*traj.T, baseMeta []core.VerifyMeta, queries []*traj.T) {
	t.Helper()
	if len(v.Overlay) == 0 || v.Masked == nil || len(v.Base) != len(base) || &v.Base[0] != &base[0] || &v.BaseMeta[0] != &baseMeta[0] {
		t.Fatalf("view of %d base + %d overlay members (masked: %v) does not alias the partition's %d-member base",
			len(v.Base), len(v.Overlay), v.Masked != nil, len(base))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range queries {
		if _, _, err := v.Search(context.Background(), m, q.Points, 0, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(queries)); per >= uint64(8*len(base)) {
		t.Errorf("a search over a %d-member base with %d overlay members allocates %d B", len(base), len(v.Overlay), per)
	}
}
