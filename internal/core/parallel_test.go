package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"dita/internal/gen"
)

// parLevels are the fan-outs the differential tests sweep; 1 is the
// sequential reference path.
var parLevels = []int{1, 2, 8}

// TestParallelSearchDifferential: every fan-out must return byte-identical
// results and pruning funnels to the sequential path, query by query.
func TestParallelSearchDifferential(t *testing.T) {
	d := smallDataset(400, 21)
	qs := gen.Queries(d, 10, 22)
	const tau = 0.05

	type outcome struct {
		res    []SearchResult
		funnel string
	}
	baseline := make([]outcome, len(qs))
	for li, par := range parLevels {
		opts := smallOpts(4)
		opts.VerifyParallelism = par
		e, err := NewEngine(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range qs {
			var st SearchStats
			res := e.Search(q, tau, &st)
			got := outcome{res: res, funnel: fmt.Sprintf("%+v", st.Funnel)}
			if li == 0 {
				baseline[qi] = got
				continue
			}
			if !reflect.DeepEqual(got.res, baseline[qi].res) {
				t.Errorf("par=%d q%d: results diverge from sequential", par, qi)
			}
			if got.funnel != baseline[qi].funnel {
				t.Errorf("par=%d q%d: funnel diverges:\n seq: %s\n par: %s",
					par, qi, baseline[qi].funnel, got.funnel)
			}
		}
	}
}

// TestParallelKNNDifferential: the best-first kNN's partition scans run
// above the verification pool setting; answers and funnels must be
// byte-identical across fan-outs (the scan itself is sequential — the
// live τ mutates between candidates — so fan-out must change nothing).
func TestParallelKNNDifferential(t *testing.T) {
	d := smallDataset(400, 23)
	qs := gen.Queries(d, 6, 24)
	const k = 7

	type outcome struct {
		res    []SearchResult
		funnel string
	}
	baseline := make([]outcome, len(qs))
	for li, par := range parLevels {
		opts := smallOpts(4)
		opts.VerifyParallelism = par
		e, err := NewEngine(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range qs {
			var st SearchStats
			res := must(e.SearchKNNContext(context.Background(), q, k, &st))
			got := outcome{res: res, funnel: fmt.Sprintf("%+v", st.Funnel)}
			if li == 0 {
				baseline[qi] = got
				continue
			}
			if !reflect.DeepEqual(got.res, baseline[qi].res) {
				t.Errorf("par=%d q%d: kNN results diverge from sequential", par, qi)
			}
			if got.funnel != baseline[qi].funnel {
				t.Errorf("par=%d q%d: kNN funnel diverges:\n seq: %s\n par: %s",
					par, qi, baseline[qi].funnel, got.funnel)
			}
		}
	}
}

// TestParallelJoinDifferential: the self-join's edge verification fans out
// over the flattened pair lists; pairs (order included) and the join
// funnel must match the sequential path.
func TestParallelJoinDifferential(t *testing.T) {
	d := smallDataset(150, 25)
	const tau = 0.05

	var basePairs []Pair
	var baseFunnel string
	for li, par := range parLevels {
		opts := smallOpts(4)
		opts.VerifyParallelism = par
		e1, err := NewEngine(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := NewEngine(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		var js JoinStats
		pairs := e1.Join(e2, tau, DefaultJoinOptions(), &js)
		funnel := fmt.Sprintf("%+v", js.Funnel)
		if li == 0 {
			basePairs, baseFunnel = pairs, funnel
			continue
		}
		if !reflect.DeepEqual(pairs, basePairs) {
			t.Errorf("par=%d: join pairs diverge from sequential (%d vs %d)",
				par, len(pairs), len(basePairs))
		}
		if funnel != baseFunnel {
			t.Errorf("par=%d: join funnel diverges:\n seq: %s\n par: %s",
				par, baseFunnel, funnel)
		}
	}
}

// TestVerifyAllMatchesSequential exercises the pool helper directly
// against a hand-rolled sequential loop over one partition's candidates.
func TestVerifyAllMatchesSequential(t *testing.T) {
	d := smallDataset(300, 27)
	e, err := NewEngine(d, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	qs := gen.Queries(d, 4, 28)
	const tau = 0.08
	for _, p := range e.Partitions() {
		if len(p.Trajs) == 0 {
			continue
		}
		cands := make([]int, len(p.Trajs))
		for i := range cands {
			cands[i] = i
		}
		for qi, q := range qs {
			vSeq := NewVerifier(e.Measure(), q.Points, tau, e.CellD())
			var want []VerifyHit
			for _, i := range cands {
				if dist, ok := vSeq.Verify(p.Trajs[i], p.meta[i]); ok {
					want = append(want, VerifyHit{Index: i, Distance: dist})
				}
			}
			for _, par := range parLevels {
				vPar := NewVerifier(e.Measure(), q.Points, tau, e.CellD())
				got, err := vPar.VerifyAll(context.Background(), p.Trajs, p.meta, cands, par)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("p%d q%d par=%d: hits diverge", p.ID, qi, par)
				}
				seqF := fmt.Sprintf("%+v", vSeq.Funnel(len(p.Trajs), len(cands)))
				parF := fmt.Sprintf("%+v", vPar.Funnel(len(p.Trajs), len(cands)))
				if seqF != parF {
					t.Errorf("p%d q%d par=%d: funnel diverges:\n seq: %s\n par: %s",
						p.ID, qi, par, seqF, parF)
				}
			}
		}
	}
}

// TestParallelForPanic: a panic in any worker must surface on the calling
// goroutine with the original panic value, exactly like a sequential loop.
func TestParallelForPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if s, ok := r.(string); !ok || s != "poisoned candidate" {
			t.Fatalf("panic value mangled: %v", r)
		}
	}()
	_ = parallelFor(context.Background(), 64, 4, func(i int) {
		if i == 17 {
			panic("poisoned candidate")
		}
	})
}

// TestParallelForCancel: a cancelled context stops the fan-out and is
// reported as the loop error.
func TestParallelForCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := parallelFor(ctx, 64, 4, func(i int) {})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
