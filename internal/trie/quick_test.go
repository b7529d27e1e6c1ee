package trie

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/pivot"
	"dita/internal/traj"
)

// qworld is a quick.Generator producing a small random dataset, a query,
// and a trie config — the full input space of a trie search.
type qworld struct {
	Trajs []*traj.T
	Query []geom.Point
	Cfg   Config
	Tau   float64
}

// Generate implements quick.Generator.
func (qworld) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 5 + rng.Intn(40)
	ts := make([]*traj.T, n)
	for i := range ts {
		ts[i] = qtrajN(rng, i, 2+rng.Intn(10))
	}
	w := qworld{
		Trajs: ts,
		Query: qtrajN(rng, -1, 2+rng.Intn(10)).Points,
		Cfg: Config{
			K:        rng.Intn(5),
			NLAlign:  2 + rng.Intn(5),
			NLPivot:  2 + rng.Intn(3),
			MinNode:  1 + rng.Intn(3),
			Strategy: pivot.Strategy(rng.Intn(3)),
		},
		Tau: rng.Float64() * 6,
	}
	return reflect.ValueOf(w)
}

func qtrajN(rng *rand.Rand, id, n int) *traj.T {
	pts := make([]geom.Point, n)
	x, y := rng.Float64()*8, rng.Float64()*8
	for i := range pts {
		x += rng.NormFloat64()
		y += rng.NormFloat64()
		pts[i] = geom.Point{X: x, Y: y}
	}
	return &traj.T{ID: id, Points: pts}
}

// The fundamental trie property on arbitrary quick-generated worlds: the
// candidate set is a superset of the true result set, for every measure.
func TestQuickTrieNoFalseNegatives(t *testing.T) {
	measures := []measure.Measure{
		measure.DTW{}, measure.Frechet{}, measure.EDR{Eps: 0.7},
		measure.LCSS{Eps: 0.7, Delta: 2}, measure.ERP{},
	}
	f := func(w qworld) bool {
		tr := Build(w.Trajs, w.Cfg)
		for _, m := range measures {
			tau := w.Tau
			if m.Accumulation() == measure.AccumEdit {
				tau = float64(int(w.Tau)) // integer edit budgets
			}
			cands := map[int]bool{}
			for _, i := range tr.Search(w.Query, m, tau, nil) {
				cands[i] = true
			}
			for i, cand := range w.Trajs {
				if m.Distance(cand.Points, w.Query) <= tau && !cands[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Every trajectory appears in exactly one leaf (the trie partitions its
// input).
func TestQuickTriePartitionsInput(t *testing.T) {
	f := func(w qworld) bool {
		tr := Build(w.Trajs, w.Cfg)
		seen := make([]int, len(w.Trajs))
		var walk func(n *ptrNode)
		walk = func(n *ptrNode) {
			for _, i := range n.leafIdx {
				seen[i]++
			}
			for _, c := range n.children {
				walk(c)
			}
		}
		walk(tr.tree())
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Node MBRs must cover the level point of every trajectory beneath them.
func TestQuickTrieMBRInvariant(t *testing.T) {
	f := func(w qworld) bool {
		tr := Build(w.Trajs, w.Cfg)
		ok := true
		var walk func(n *ptrNode, members []int)
		collect := func(n *ptrNode) []int {
			var out []int
			var rec func(*ptrNode)
			rec = func(m *ptrNode) {
				out = append(out, m.leafIdx...)
				for _, c := range m.children {
					rec(c)
				}
			}
			rec(n)
			return out
		}
		walk = func(n *ptrNode, _ []int) {
			if n.level >= 0 && !n.mbr.IsEmpty() {
				for _, i := range collect(n) {
					if ip := pivot.IndexingPoints(w.Trajs[i].Points, tr.cfg.K, tr.cfg.Strategy); n.level < len(ip) && !n.mbr.Contains(ip[n.level]) {
						ok = false
					}
				}
			}
			for _, c := range n.children {
				walk(c, nil)
			}
		}
		walk(tr.tree(), nil)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
