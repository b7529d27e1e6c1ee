package core

import (
	"context"
	"math/rand"
	"testing"

	"dita/internal/cluster"
	"dita/internal/gen"
)

// enginesForGraph builds two tiny engines so orient/balance have partition
// arrays to index; the synthetic edges below ignore the real data.
func enginesForGraph(t *testing.T, nPartsEach int) (*Engine, *Engine) {
	t.Helper()
	d := gen.Generate(gen.BeijingLike(nPartsEach*20, 99))
	opts := DefaultOptions()
	// NG chosen so STR yields at least nPartsEach partitions.
	opts.NG = nPartsEach
	opts.Cluster = cluster.New(cluster.DefaultConfig(4))
	e1, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e1, e2
}

// maxTC computes the objective orient minimizes, for verification.
func maxTC(edges []*edge, e, other *Engine, lambda float64) float64 {
	nT := len(e.parts)
	tc := make([]float64, nT+len(other.parts))
	for _, ed := range edges {
		if ed.dirTQ {
			tc[ed.ti] += lambda * ed.transTQ
			tc[nT+ed.qj] += ed.compTQ
		} else {
			tc[nT+ed.qj] += lambda * ed.transQT
			tc[ed.ti] += ed.compQT
		}
	}
	worst := 0.0
	for _, v := range tc {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// The greedy orientation must never end worse than the all-initial
// orientation, and must strictly improve on a crafted skewed instance.
func TestOrientImproves(t *testing.T) {
	e1, e2 := enginesForGraph(t, 3)
	opts := DefaultJoinOptions()
	opts.Lambda = 1

	// Crafted instance: every edge's locally cheaper direction dumps all
	// computation on partition Q0, so the initial assignment is maximally
	// skewed; flipping some edges strictly reduces the max.
	var edges []*edge
	for ti := 0; ti < min(3, len(e1.parts)); ti++ {
		edges = append(edges, &edge{
			ti: ti, qj: 0,
			transTQ: 1, compTQ: 100, // -> Q0 heavy
			transQT: 2, compQT: 101, // slightly worse locally
		})
	}
	if len(edges) < 2 {
		t.Skip("not enough partitions for the crafted instance")
	}
	// Initial local choice (what DisableOrientation keeps).
	init := append([]*edge(nil), cloneEdges(edges)...)
	orient(context.Background(), init, len(e1.parts), len(e2.parts), JoinOptions{Lambda: 1, DisableOrientation: true})
	initCost := maxTC(init, e1, e2, 1)

	greedy := cloneEdges(edges)
	orient(context.Background(), greedy, len(e1.parts), len(e2.parts), JoinOptions{Lambda: 1})
	greedyCost := maxTC(greedy, e1, e2, 1)

	if greedyCost > initCost {
		t.Fatalf("greedy orientation worsened the objective: %v > %v", greedyCost, initCost)
	}
	if greedyCost >= initCost {
		t.Fatalf("greedy orientation failed to improve a maximally skewed instance: %v vs %v", greedyCost, initCost)
	}
}

func cloneEdges(es []*edge) []*edge {
	out := make([]*edge, len(es))
	for i, e := range es {
		c := *e
		out[i] = &c
	}
	return out
}

// Randomized: greedy never ends above the initial local assignment.
func TestOrientNeverWorsens(t *testing.T) {
	e1, e2 := enginesForGraph(t, 3)
	rng := rand.New(rand.NewSource(5))
	nT, nQ := len(e1.parts), len(e2.parts)
	for iter := 0; iter < 50; iter++ {
		var edges []*edge
		ne := 2 + rng.Intn(10)
		for k := 0; k < ne; k++ {
			edges = append(edges, &edge{
				ti:      rng.Intn(nT),
				qj:      rng.Intn(nQ),
				transTQ: rng.Float64() * 100, compTQ: rng.Float64() * 100,
				transQT: rng.Float64() * 100, compQT: rng.Float64() * 100,
			})
		}
		lambda := rng.Float64() + 0.1
		init := cloneEdges(edges)
		orient(context.Background(), init, len(e1.parts), len(e2.parts), JoinOptions{Lambda: lambda, DisableOrientation: true})
		greedy := cloneEdges(edges)
		orient(context.Background(), greedy, len(e1.parts), len(e2.parts), JoinOptions{Lambda: lambda})
		if maxTC(greedy, e1, e2, lambda) > maxTC(init, e1, e2, lambda)+1e-9 {
			t.Fatalf("greedy worsened objective on iteration %d", iter)
		}
	}
}

// Division balancing must spread a dominating node's edges over several
// workers and leave balanced instances untouched.
func TestBalanceSpreadsHeavyNode(t *testing.T) {
	e1, e2 := enginesForGraph(t, 3)
	// One destination partition receives every edge: its workload is far
	// above the 98th percentile of the (mostly tiny) others.
	var edges []*edge
	for k := 0; k < 12; k++ {
		ed := &edge{ti: k % len(e1.parts), qj: 0, transTQ: 10, compTQ: 1000, transQT: 1e9, compQT: 1e9}
		ed.dirTQ = true
		edges = append(edges, ed)
	}
	divisions := joinViewsOf(e1, e2).balance(edges, JoinOptions{Lambda: 1, DivisionQuantile: 0.5})
	if divisions == 0 {
		t.Fatal("division balancing never fired on a dominating node")
	}
	workers := map[int]bool{}
	for _, ed := range edges {
		workers[ed.execWorker] = true
	}
	if len(workers) < 2 {
		t.Fatalf("heavy node's edges stayed on %d worker(s)", len(workers))
	}

	// A perfectly balanced instance must not be divided.
	var flat []*edge
	for k := 0; k < min(len(e1.parts), len(e2.parts)); k++ {
		ed := &edge{ti: k, qj: k, transTQ: 1, compTQ: 1, transQT: 1, compQT: 1}
		ed.dirTQ = true
		flat = append(flat, ed)
	}
	if got := joinViewsOf(e1, e2).balance(flat, JoinOptions{Lambda: 1, DivisionQuantile: 0.98}); got != 0 {
		t.Errorf("balanced instance divided %d times", got)
	}
}

// DisableDivision keeps every edge on its home worker.
func TestBalanceDisabled(t *testing.T) {
	e1, e2 := enginesForGraph(t, 3)
	var edges []*edge
	for k := 0; k < 8; k++ {
		ed := &edge{ti: k % len(e1.parts), qj: 0, transTQ: 1, compTQ: 1000}
		ed.dirTQ = true
		edges = append(edges, ed)
	}
	if got := joinViewsOf(e1, e2).balance(edges, JoinOptions{Lambda: 1, DisableDivision: true, DivisionQuantile: 0.5}); got != 0 {
		t.Errorf("disabled division still created %d replicas", got)
	}
	home := e2.parts[0].Worker
	for _, ed := range edges {
		if ed.execWorker != home {
			t.Fatalf("edge moved off the home worker with division disabled")
		}
	}
}
