package oracle_test

import (
	"math"
	"strings"
	"testing"

	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/oracle"
	"dita/internal/traj"
	"dita/internal/viewtest"
)

// line is a hand-built member: n points on the horizontal line at height
// y, x stepping by 1/8 from x0.
func line(id, n int, x0, y float64) *traj.T {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: x0 + float64(i)/8, Y: y}
	}
	return &traj.T{ID: id, Points: pts}
}

// members is a small hand-built set: lines at several heights and lengths,
// ids out of slot order, two members sharing id 4 and two byte-identical
// members under ids 9 and 2.
func members() []*traj.T {
	return []*traj.T{
		line(7, 5, 0, 0.5),
		line(3, 4, 0.25, 0),
		line(9, 6, 0, 0.125),
		line(4, 5, 0.5, 0.25),
		line(4, 3, 0, 0.75),
		line(2, 6, 0, 0.125),
		line(1, 2, 1, 1),
	}
}

func query() *traj.T { return line(-1, 5, 0, 0.0625) }

// The τ test is Distance ≤ τ: a member whose distance is τ exactly is in the
// answer, and it leaves at τ's lower ulp neighbour and stays at its upper.
func TestSearchTauInclusive(t *testing.T) {
	ms, q := members(), query()
	for _, m := range viewtest.Measures(t) {
		for _, mem := range ms {
			d := m.Distance(mem.Points, q.Points)
			for _, tc := range []struct {
				tau  float64
				kept bool
			}{{d, true}, {math.Nextafter(d, math.Inf(-1)), false}, {math.Nextafter(d, math.Inf(1)), true}} {
				in := false
				for _, h := range oracle.Search(ms, m, q, tc.tau) {
					if h.Distance > tc.tau {
						t.Fatalf("%s τ=%v: hit %v is past τ", m.Name(), tc.tau, h)
					}
					in = in || (h.ID == mem.ID && h.Distance == d)
				}
				if in != tc.kept {
					t.Errorf("%s: member %d at %v, τ=%v: in the answer %v, want %v", m.Name(), mem.ID, d, tc.tau, in, tc.kept)
				}
			}
		}
	}
}

// A search answer is ascending by id, members sharing an id by distance,
// and holds Distance's own bits.
func TestSearchOrder(t *testing.T) {
	ms, q := members(), query()
	for _, m := range viewtest.Measures(t) {
		got := oracle.Search(ms, m, q, math.Inf(1))
		if len(got) != len(ms) {
			t.Fatalf("%s: %d hits at τ = +Inf over %d members", m.Name(), len(got), len(ms))
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.ID > b.ID || (a.ID == b.ID && a.Distance > b.Distance) {
				t.Fatalf("%s: hit %d (%v) follows %v", m.Name(), i, b, a)
			}
		}
		for _, mem := range ms {
			if !hasHit(got, oracle.Hit{ID: mem.ID, Distance: m.Distance(mem.Points, q.Points)}) {
				t.Fatalf("%s: member %d missing from %v", m.Name(), mem.ID, got)
			}
		}
	}
}

func hasHit(hs []oracle.Hit, want oracle.Hit) bool {
	for _, h := range hs {
		if oracle.DiffSearch([]oracle.Hit{h}, []oracle.Hit{want}) == nil {
			return true
		}
	}
	return false
}

// A tie at the k-th distance is broken by id: byte-identical members stored
// in descending id order come back ascending, k cuts through the group, and
// k = 0 and k ≥ n give nothing and everything.
func TestKNNTieAtKth(t *testing.T) {
	var ms []*traj.T
	for i := 0; i < 4; i++ {
		ms = append(ms, line(10-i, 5, 0, 0.25)) // one tie group: ids 10, 9, 8, 7
	}
	ms = append(ms, line(20, 5, 0, 0.0625), line(5, 5, 0, 0.5))
	q := query()
	for _, m := range viewtest.Measures(t) {
		all := oracle.KNN(ms, m, q, len(ms))
		for i := 1; i < len(all); i++ {
			a, b := all[i-1], all[i]
			if a.Distance > b.Distance || (a.Distance == b.Distance && a.ID >= b.ID) {
				t.Fatalf("%s: neighbour %d (%v) follows %v", m.Name(), i, b, a)
			}
		}
		for k := 0; k <= len(ms)+2; k++ {
			got := oracle.KNN(ms, m, q, k)
			if err := oracle.DiffKNN(got, all[:min(k, len(ms))]); err != nil {
				t.Fatalf("%s k=%d: %v", m.Name(), k, err)
			}
		}
		if m.Name() != "DTW" {
			continue
		}
		// Under DTW the group is strictly between the member at 0.0625 and
		// the one at 0.5: k = 2 keeps its smallest id only.
		if got := oracle.IDs(oracle.KNN(ms, m, q, 2)); got[0] != 20 || got[1] != 7 {
			t.Fatalf("DTW k=2: %v, want [20 7]", got)
		}
	}
}

// A self-join pairs each member with itself once — members sharing an id
// included — and reports every other pair in both orientations with the
// same bits. Distance is bitwise symmetric, so it is the two-dataset join
// of the members with themselves.
func TestSelfJoinRule(t *testing.T) {
	ms := members()
	for _, m := range viewtest.Measures(t) {
		got := oracle.SelfJoin(ms, m, math.Inf(1))
		if len(got) != len(ms)*len(ms) {
			t.Fatalf("%s: %d pairs over %d members at τ = +Inf", m.Name(), len(got), len(ms))
		}
		if err := oracle.DiffJoin(got, oracle.Join(ms, ms, m, math.Inf(1))); err != nil {
			t.Fatalf("%s: self-join vs join with itself: %v", m.Name(), err)
		}
		n := map[[2]int]int{}
		for _, p := range got {
			n[[2]int{p.T, p.Q}]++
			if !hasPair(got, oracle.Pair{T: p.Q, Q: p.T, Distance: p.Distance}) {
				t.Fatalf("%s: %v has no mirror with its bits", m.Name(), p)
			}
		}
		// Id 4 names two members: four pairs under (4,4), two of them a
		// member with itself.
		if n[[2]int{4, 4}] != 4 || n[[2]int{7, 7}] != 1 || n[[2]int{9, 2}] != 1 {
			t.Fatalf("%s: %d pairs (4,4), %d (7,7), %d (9,2); want 4, 1, 1", m.Name(), n[[2]int{4, 4}], n[[2]int{7, 7}], n[[2]int{9, 2}])
		}
		tau := got[len(got)/2].Distance
		for _, p := range oracle.SelfJoin(ms, m, tau) {
			if p.Distance > tau {
				t.Fatalf("%s τ=%v: pair %v is past τ", m.Name(), tau, p)
			}
		}
	}
}

func hasPair(ps []oracle.Pair, want oracle.Pair) bool {
	for _, p := range ps {
		if oracle.DiffJoin([]oracle.Pair{p}, []oracle.Pair{want}) == nil {
			return true
		}
	}
	return false
}

// skewed is DTW plus the first member's id-free offset, so Distance(t, q)
// and Distance(q, t) differ: a join that swapped its sides would show.
type skewed struct{ measure.DTW }

func (skewed) Distance(t, q []geom.Point) float64 {
	return measure.DTW{}.Distance(t, q) + 2*t[0].X
}

// A join's T comes from the left side and Q from the right, and its
// distance is Distance(T, Q).
func TestJoinOrientation(t *testing.T) {
	left := []*traj.T{line(1, 4, 0, 0), line(2, 4, 0.5, 0.125)}
	right := []*traj.T{line(100, 4, 0.25, 0), line(101, 5, 1, 0.25)}
	m := skewed{}
	got := oracle.Join(left, right, m, math.Inf(1))
	var want []oracle.Pair
	for _, a := range left {
		for _, b := range right {
			want = append(want, oracle.Pair{T: a.ID, Q: b.ID, Distance: m.Distance(a.Points, b.Points)})
		}
	}
	if err := oracle.DiffJoin(got, want); err != nil {
		t.Fatal(err)
	}
	if err := oracle.DiffJoin(oracle.Join(right, left, m, math.Inf(1)), got); err == nil {
		t.Fatal("the join of the sides swapped is the same answer")
	}
}

// The comparators compare bits, not values, and name the first difference.
func TestDiff(t *testing.T) {
	h := []oracle.Hit{{ID: 1, Distance: 0.5}, {ID: 2, Distance: 0}}
	for _, tc := range []struct {
		got  []oracle.Hit
		want string // "" when equal
	}{
		{[]oracle.Hit{{1, 0.5}, {2, 0}}, ""},
		{[]oracle.Hit{{1, 0.5}, {2, math.Copysign(0, -1)}}, "hit 1 is 2 at -0"},
		{[]oracle.Hit{{1, math.Nextafter(0.5, 1)}, {2, 0}}, "hit 0 is 1 at 0.5000000000000001"},
		{[]oracle.Hit{{2, 0}, {1, 0.5}}, "hit 0 is 2 at 0"},
		{[]oracle.Hit{{1, 0.5}}, "1 hits, want 2: first missing 2 at 0"},
		{[]oracle.Hit{{1, 0.5}, {2, 0}, {3, 1}}, "3 hits, want 2: first extra 3 at 1"},
	} {
		err := oracle.DiffSearch(tc.got, h)
		if (err == nil) != (tc.want == "") || (err != nil && !strings.HasPrefix(err.Error(), tc.want)) {
			t.Errorf("DiffSearch(%v): %v, want %q", tc.got, err, tc.want)
		}
	}
	nan := math.NaN()
	if err := oracle.DiffKNN([]oracle.Hit{{1, nan}}, []oracle.Hit{{1, nan}}); err != nil {
		t.Errorf("a NaN distance differs from itself: %v", err)
	}
	p := []oracle.Pair{{T: 1, Q: 2, Distance: 0.25}}
	if err := oracle.DiffJoin([]oracle.Pair{{T: 2, Q: 1, Distance: 0.25}}, p); err == nil || !strings.HasPrefix(err.Error(), "pair 0 is (2,1)") {
		t.Errorf("DiffJoin with the orientation swapped: %v", err)
	}
}
