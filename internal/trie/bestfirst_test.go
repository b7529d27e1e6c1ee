package trie

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/pivot"
	"dita/internal/traj"
)

func quickMeasures() []measure.Measure {
	return []measure.Measure{
		measure.DTW{}, measure.Frechet{}, measure.EDR{Eps: 0.7},
		measure.LCSS{Eps: 0.7, Delta: 2}, measure.ERP{},
	}
}

// drain runs a traversal to exhaustion, taking each call's threshold from
// tau (called with the number of buckets yielded so far), and fails the
// property on a bucket out of bound order or above its call's threshold.
func drain(b *BestFirst, tau func(yielded int) float64) (out []Cand, ok bool) {
	prev := math.Inf(-1)
	for n := 0; ; n++ {
		t := tau(n)
		idxs, lb, more := b.Next(t)
		if !more {
			return out, true
		}
		if lb < prev || lb > t {
			return nil, false
		}
		prev = lb
		for _, i := range idxs {
			out = append(out, Cand{Idx: int(i), LB: lb})
		}
	}
}

// sound checks one drained traversal against the contract: no member twice,
// and every yielded key a lower bound on the distance to each member of its
// bucket.
func sound(w []*traj.T, q []geom.Point, m measure.Measure, got []Cand) (at map[int]float64, ok bool) {
	at = map[int]float64{}
	for _, c := range got {
		if _, dup := at[c.Idx]; dup {
			return nil, false
		}
		if c.LB > m.Distance(w[c.Idx].Points, q) {
			return nil, false
		}
		at[c.Idx] = c.LB
	}
	return at, true
}

// Draining the best-first traversal at a fixed threshold — finite, zero or
// +Inf — yields, in non-decreasing key order, a subset of the recursive
// bound-aware descent's candidates at that threshold (each at a key no
// smaller than the descent's path bound, and exactly it where the measure
// admits no envelope bound) and a superset of the members within the
// threshold, every key a sound lower bound — for every measure.
func TestQuickBestFirstFixedTau(t *testing.T) {
	ctx := context.Background()
	f := func(w qworld) bool {
		tr := Build(w.Trajs, w.Cfg)
		for _, m := range quickMeasures() {
			for _, tau := range []float64{w.Tau, 0, math.Inf(1)} {
				if m.Accumulation() == measure.AccumEdit && !math.IsInf(tau, 1) {
					tau = float64(int(tau)) // integer edit budgets
				}
				want, err := tr.SearchBoundsContext(ctx, w.Query, m, tau, nil)
				if err != nil {
					return false
				}
				path := map[int]float64{}
				for _, c := range want {
					path[c.Idx] = c.LB
				}
				b := tr.BestFirst(ctx, w.Query, m)
				got, ok := drain(b, func(int) float64 { return tau })
				if !ok || b.Err() != nil {
					return false
				}
				at, ok := sound(w.Trajs, w.Query, m, got)
				if !ok {
					return false
				}
				for i, key := range at {
					lb, in := path[i]
					if !in || key < lb || (!b.env && key != lb) {
						return false
					}
				}
				for i, c := range w.Trajs {
					if _, in := at[i]; !in && m.Distance(c.Points, w.Query) <= tau {
						return false
					}
				}
				if !b.env && len(got) != len(want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// A threshold that shrinks between Next calls — from +Inf down to its final
// value, the way a top-k scan tightens it — never loses a member within the
// final threshold, and never yields one above a sound bound.
func TestQuickBestFirstShrinkingTau(t *testing.T) {
	ctx := context.Background()
	f := func(w qworld) bool {
		tr := Build(w.Trajs, w.Cfg)
		for _, m := range quickMeasures() {
			final := w.Tau
			if m.Accumulation() == measure.AccumEdit {
				final = float64(int(final))
			}
			b := tr.BestFirst(ctx, w.Query, m)
			got, ok := drain(b, func(yielded int) float64 {
				switch {
				case yielded < 2:
					return math.Inf(1)
				case yielded < 6:
					return final + float64(6-yielded)
				}
				return final
			})
			if !ok || b.Err() != nil {
				return false
			}
			at, ok := sound(w.Trajs, w.Query, m, got)
			if !ok {
				return false
			}
			for i, c := range w.Trajs {
				if _, in := at[i]; !in && m.Distance(c.Points, w.Query) <= final {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// registryMeasures is every measure measure.ByName resolves.
func registryMeasures(t testing.TB) []measure.Measure {
	t.Helper()
	var ms []measure.Measure
	for _, name := range []string{"DTW", "FRECHET", "EDR", "LCSS", "ERP", "HAUSDORFF"} {
		m, err := measure.ByName(name, 0.3, 2)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// The soundness half of the contract over the whole measure registry and
// the inputs a random walk never produces: stationary members (of the
// shortest indexable length too), exact duplicates, single-point and
// stationary queries, a query far from every member, an empty trie — at +Inf (every member, once: a top-k with k >= visible), at each
// query's own k-th distance, and at 0.
func TestBestFirstSoundAllMeasures(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	still := func(id, n int, p geom.Point) *traj.T {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = p
		}
		return &traj.T{ID: id, Points: pts}
	}
	var world []*traj.T
	add := func(pts []geom.Point) { world = append(world, &traj.T{ID: len(world), Points: pts}) }
	for i := 0; i < 60; i++ {
		add(randTraj(rng, 0, 2+rng.Intn(12)).Points)
	}
	for i := 0; i < 12; i++ {
		p := geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		add(still(0, traj.MinLen+rng.Intn(8), p).Points)
		add(still(0, traj.MinLen+rng.Intn(8), p).Points)   // same place, another length
		add(append([]geom.Point(nil), world[i].Points...)) // duplicate geometry
	}
	queries := [][]geom.Point{
		world[3].Points, world[61].Points,
		randTraj(rng, -1, 9).Points,
		{{X: 5, Y: 5}},
		still(-1, 7, geom.Point{X: 2.5, Y: 7.5}).Points,
		still(-1, 5, geom.Point{X: 400, Y: -300}).Points, // far from every member
		randTraj(rng, -1, 6).Points,
	}
	for i := range queries[6] {
		queries[6][i].X += 1e3
	}
	cfgs := []Config{
		{K: 2, NLAlign: 3, NLPivot: 2, MinNode: 1},
		{K: 4, NLAlign: 4, NLPivot: 3, MinNode: 2, Strategy: pivot.Inflection},
		{K: 0, NLAlign: 2, NLPivot: 2, MinNode: 200}, // the root is one leaf
	}
	for _, m := range registryMeasures(t) {
		for ci, cfg := range cfgs {
			tr := Build(world, cfg)
			for qi, q := range queries {
				dist := make([]float64, len(world))
				for i, c := range world {
					dist[i] = m.Distance(c.Points, q)
				}
				sorted := append([]float64(nil), dist...)
				sort.Float64s(sorted)
				for _, tau := range []float64{math.Inf(1), sorted[9], 0} {
					b := tr.BestFirst(ctx, q, m)
					got, ok := drain(b, func(int) float64 { return tau })
					if !ok {
						t.Fatalf("%s cfg %d query %d tau %g: keys out of order or above tau", m.Name(), ci, qi, tau)
					}
					at, ok := sound(world, q, m, got)
					if !ok {
						t.Fatalf("%s cfg %d query %d tau %g: duplicate member or key above Distance", m.Name(), ci, qi, tau)
					}
					for i := range world {
						if _, in := at[i]; !in && dist[i] <= tau {
							t.Fatalf("%s cfg %d query %d tau %g: member %d at distance %g not yielded",
								m.Name(), ci, qi, tau, i, dist[i])
						}
					}
				}
			}
		}
		empty := Build(nil, cfgs[0])
		if _, _, ok := empty.BestFirst(ctx, queries[0], m).Next(math.Inf(1)); ok {
			t.Fatalf("%s: empty trie yielded a bucket", m.Name())
		}
		if _, _, ok := Build(world, cfgs[0]).BestFirst(ctx, nil, m).Next(math.Inf(1)); ok {
			t.Fatalf("%s: empty query yielded a bucket", m.Name())
		}
	}
}

// The bounds hold at a tie with no tolerance, for every measure: over
// thousands of small seeded tries on a 0.1 grid — deep enough to reach
// pivot levels, full of duplicate points and sums that round — a threshold
// search at τ = a member's own Distance keeps that member, and the
// best-first traversal yields every member at a key no larger than its
// Distance. A sum folded in another order than the DP's drops members
// here (ROADMAP item 1).
func TestPathBoundAtDistance(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	grid := func() geom.Point {
		return geom.Point{X: float64(rng.Intn(7)-3) * 0.1, Y: float64(rng.Intn(7)-3) * 0.1}
	}
	ms := registryMeasures(t)
	for it := 0; it < 2000; it++ {
		world := make([]*traj.T, 4+rng.Intn(16))
		for i := range world {
			pts := make([]geom.Point, traj.MinLen+rng.Intn(6))
			for j := range pts {
				pts[j] = grid()
			}
			world[i] = &traj.T{ID: i, Points: pts}
		}
		q := make([]geom.Point, 1+rng.Intn(6))
		for j := range q {
			q[j] = grid()
		}
		tr := Build(world, Config{K: 1 + rng.Intn(3), NLAlign: 2, NLPivot: 2, MinNode: 1})
		for _, m := range ms {
			got, ok := drain(tr.BestFirst(ctx, q, m), func(int) float64 { return math.Inf(1) })
			if at, sound := sound(world, q, m, got); !ok || !sound || len(at) != len(world) {
				t.Fatalf("try %d, %s: best-first yielded %d of %d members, in order %v, every key within Distance %v",
					it, m.Name(), len(at), len(world), ok, sound)
			}
			for i, c := range world {
				tau := m.Distance(c.Points, q)
				cands, err := tr.SearchContext(ctx, q, m, tau, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Contains(cands, i) {
					t.Fatalf("try %d, %s: search at τ = %v, member %d's own Distance, dropped it", it, m.Name(), tau, i)
				}
			}
		}
	}
}

// The envelope is what an outlier query is pruned by: far from every member
// the path bound sees only K+2 indexing points, the envelope all of them,
// and the traversal must hand over less than the descent at the same τ.
func TestBestFirstEnvelopePrunesOutlier(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	world := randTrajs(rng, 600)
	tr := Build(world, Config{K: 4, NLAlign: 6, NLPivot: 3, MinNode: 2})
	q := randTraj(rng, -1, 14).Points
	for i := range q {
		q[i].X += 6 // off the 10×10 extent's edge
	}
	for _, m := range []measure.Measure{measure.DTW{}, measure.Frechet{}, measure.Hausdorff{}} {
		// A max measure's path bound already rejects on its worst level;
		// it is the sum that K+2 points of a long trajectory undercount.
		keep := 1.0
		if m.Accumulation() == measure.AccumSum {
			keep = 0.5
		}
		dist := make([]float64, len(world))
		for i, c := range world {
			dist[i] = m.Distance(c.Points, q)
		}
		sort.Float64s(dist)
		tau := dist[9]
		want, err := tr.SearchBoundsContext(ctx, q, m, tau, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := drain(tr.BestFirst(ctx, q, m), func(int) float64 { return tau })
		if !ok || len(got) < 10 {
			t.Fatalf("%s: drained %d (ok=%v), want at least the 10 within tau", m.Name(), len(got), ok)
		}
		if float64(len(got)) > keep*float64(len(want)) {
			t.Errorf("%s: envelope pruned too little: %d yielded of the descent's %d at tau %g",
				m.Name(), len(got), len(want), tau)
		}
	}
}

// A cancelled context ends the traversal within ctxCheckEvery node visits
// and surfaces as Err.
func TestBestFirstCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := Build(randTrajs(rng, 4000), Config{K: 4, NLAlign: 8, NLPivot: 4, MinNode: 2})
	ctx, cancel := context.WithCancel(context.Background())
	b := tr.BestFirst(ctx, randTraj(rng, -1, 12).Points, measure.DTW{})
	if _, _, ok := b.Next(math.Inf(1)); !ok || b.Err() != nil {
		t.Fatalf("first bucket: ok=%v err=%v", ok, b.Err())
	}
	cancel()
	got, _ := drain(b, func(int) float64 { return math.Inf(1) })
	if b.Err() != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", b.Err())
	}
	if len(got) >= len(tr.Trajs)/2 {
		t.Fatalf("cancelled traversal still yielded %d of %d members", len(got), len(tr.Trajs))
	}
}
