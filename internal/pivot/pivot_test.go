package pivot

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dita/internal/geom"
)

// Figure 1 trajectories.
var (
	t1 = []geom.Point{{X: 1, Y: 1}, {X: 1, Y: 2}, {X: 3, Y: 2}, {X: 4, Y: 4}, {X: 4, Y: 5}, {X: 5, Y: 5}}
	t2 = []geom.Point{{X: 0, Y: 1}, {X: 0, Y: 2}, {X: 4, Y: 2}, {X: 4, Y: 4}, {X: 4, Y: 5}, {X: 5, Y: 5}}
	t3 = []geom.Point{{X: 1, Y: 1}, {X: 4, Y: 1}, {X: 4, Y: 3}, {X: 4, Y: 5}, {X: 4, Y: 6}, {X: 5, Y: 6}}
	t4 = []geom.Point{{X: 0, Y: 4}, {X: 0, Y: 5}, {X: 3, Y: 3}, {X: 3, Y: 7}, {X: 7, Y: 5}}
	t5 = []geom.Point{{X: 0, Y: 4}, {X: 0, Y: 5}, {X: 3, Y: 7}, {X: 3, Y: 3}, {X: 7, Y: 5}}
)

func pointsEqual(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPaperFigure1Pivots reproduces the pivot-point column of Figure 1
// (K = 2, neighbor distance strategy).
func TestPaperFigure1Pivots(t *testing.T) {
	cases := []struct {
		name string
		pts  []geom.Point
		want []geom.Point
	}{
		{"T1", t1, []geom.Point{{X: 3, Y: 2}, {X: 4, Y: 4}}},
		{"T2", t2, []geom.Point{{X: 4, Y: 2}, {X: 4, Y: 4}}},
		{"T3", t3, []geom.Point{{X: 4, Y: 1}, {X: 4, Y: 3}}},
		{"T4", t4, []geom.Point{{X: 3, Y: 3}, {X: 3, Y: 7}}},
		{"T5", t5, []geom.Point{{X: 3, Y: 7}, {X: 3, Y: 3}}},
	}
	for _, c := range cases {
		got := Points(c.pts, 2, Neighbor)
		if !pointsEqual(got, c.want) {
			t.Errorf("%s neighbor pivots = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestPaperSection412Examples reproduces the Section 4.1.2 strategy
// comparison on T1: Inflection -> [(1,2),(4,5)], Neighbor -> [(3,2),(4,4)],
// First/Last -> [(1,2),(4,5)].
func TestPaperSection412Examples(t *testing.T) {
	if got := Points(t1, 2, Inflection); !pointsEqual(got, []geom.Point{{X: 1, Y: 2}, {X: 4, Y: 5}}) {
		t.Errorf("inflection pivots = %v", got)
	}
	if got := Points(t1, 2, Neighbor); !pointsEqual(got, []geom.Point{{X: 3, Y: 2}, {X: 4, Y: 4}}) {
		t.Errorf("neighbor pivots = %v", got)
	}
	if got := Points(t1, 2, FirstLast); !pointsEqual(got, []geom.Point{{X: 1, Y: 2}, {X: 4, Y: 5}}) {
		t.Errorf("first/last pivots = %v", got)
	}
}

func TestSelectProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		n := 2 + rng.Intn(20)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		}
		for _, s := range []Strategy{Neighbor, Inflection, FirstLast} {
			k := rng.Intn(8)
			idx := Select(pts, k, s)
			// Never selects endpoints.
			for _, i := range idx {
				if i <= 0 || i >= n-1 {
					t.Fatalf("%v selected endpoint index %d of %d", s, i, n)
				}
			}
			// Strictly increasing, unique.
			if !sort.IntsAreSorted(idx) {
				t.Fatalf("indices not sorted: %v", idx)
			}
			for i := 1; i < len(idx); i++ {
				if idx[i] == idx[i-1] {
					t.Fatalf("duplicate index: %v", idx)
				}
			}
			// Correct count.
			want := k
			if interior := n - 2; want > interior {
				want = interior
			}
			if want < 0 {
				want = 0
			}
			if len(idx) != want {
				t.Fatalf("got %d pivots, want %d (n=%d k=%d)", len(idx), want, n, k)
			}
		}
	}
}

func TestIndexingPoints(t *testing.T) {
	ip := IndexingPoints(t1, 2, Neighbor)
	want := []geom.Point{{X: 1, Y: 1}, {X: 5, Y: 5}, {X: 3, Y: 2}, {X: 4, Y: 4}}
	if !pointsEqual(ip, want) {
		t.Errorf("IndexingPoints = %v, want %v", ip, want)
	}
	// Short trajectory: only endpoints.
	short := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}
	if got := IndexingPoints(short, 4, Neighbor); len(got) != 2 {
		t.Errorf("short trajectory indexing points = %v", got)
	}
}

func TestSelectDegenerate(t *testing.T) {
	if got := Select([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}, 3, Neighbor); got != nil {
		t.Errorf("no interior points should yield nil, got %v", got)
	}
	if got := Select(t1, 0, Neighbor); got != nil {
		t.Errorf("k=0 should yield nil, got %v", got)
	}
	// Duplicate points (zero-length segments, degenerate angles) must not
	// panic and must still return valid indices.
	dup := []geom.Point{{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 1}, {X: 2, Y: 2}}
	if got := Select(dup, 2, Inflection); len(got) != 2 {
		t.Errorf("degenerate selection = %v", got)
	}
}

func TestParseStrategy(t *testing.T) {
	for name, want := range map[string]Strategy{
		"neighbor": Neighbor, "Neighbor": Neighbor,
		"INFLECTION": Inflection, "first/last": FirstLast, "FirstLast": FirstLast,
	} {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy accepted")
	}
	for _, s := range []Strategy{Neighbor, Inflection, FirstLast, Strategy(99)} {
		if s.String() == "" {
			t.Error("empty strategy name")
		}
	}
}

// selectFullSort is Select as it was written before it kept a k-slot top-k:
// weigh the whole interior, sort all of it, keep k. Kept as the reference
// TestSelectMatchesFullSort compares against. A NaN weight is ranked last
// here as it is in Select; the comparator the old code ran was not an order
// on NaN, so what it chose there depended on the sort's internals.
func selectFullSort(pts []geom.Point, k int, s Strategy) []int {
	m := len(pts)
	interior := m - 2
	if k <= 0 || interior <= 0 {
		return nil
	}
	if k > interior {
		k = interior
	}
	type wi struct {
		w float64
		i int
	}
	ws := make([]wi, 0, interior)
	for i := 1; i < m-1; i++ {
		w := weight(pts, i, s)
		if math.IsNaN(w) {
			w = math.Inf(-1)
		}
		ws = append(ws, wi{w, i})
	}
	sort.Slice(ws, func(a, b int) bool {
		if ws[a].w != ws[b].w {
			return ws[a].w > ws[b].w
		}
		return ws[a].i < ws[b].i
	})
	idx := make([]int, k)
	for i := 0; i < k; i++ {
		idx[i] = ws[i].i
	}
	sort.Ints(idx)
	return idx
}

// TestSelectMatchesFullSort pins the pivots — the trie is built on them, and
// the snapshot bytes with it — to the full sort, on the inputs where a top-k
// could go wrong: tied weights, stretches where the object stands still (zero
// weights under every strategy), NaN weights, k at and beyond the interior,
// and k beyond the slots Select keeps on its stack.
func TestSelectMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := map[string]func(n int) []geom.Point{
		"random": func(n int) []geom.Point {
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
			}
			return pts
		},
		"ties": func(n int) []geom.Point {
			// Unit steps along a staircase: every Neighbor weight is 1, every
			// turn the same angle.
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{X: float64((i + 1) / 2), Y: float64(i / 2)}
			}
			return pts
		},
		"stationary": func(n int) []geom.Point {
			pts := make([]geom.Point, n)
			p := geom.Point{}
			for i := range pts {
				if rng.Intn(3) == 0 {
					p = geom.Point{X: rng.Float64(), Y: rng.Float64()}
				}
				pts[i] = p
			}
			return pts
		},
		"nan": func(n int) []geom.Point {
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
				switch rng.Intn(5) {
				case 0:
					pts[i].X = math.NaN()
				case 1:
					pts[i].Y = math.Inf(1)
				}
			}
			return pts
		},
	}
	for name, gen := range shapes {
		for iter := 0; iter < 200; iter++ {
			n := 2 + rng.Intn(40)
			pts := gen(n)
			for _, s := range []Strategy{Neighbor, Inflection, FirstLast} {
				for _, k := range []int{1, 4, 8, 9, 20, n - 2, n} {
					if got, want := Select(pts, k, s), selectFullSort(pts, k, s); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %v n=%d k=%d: Select = %v, full sort = %v", name, s, n, k, got, want)
					}
				}
			}
		}
	}
}
