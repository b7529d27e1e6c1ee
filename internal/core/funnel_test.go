package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"dita/internal/gen"
	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/obs"
	"dita/internal/oracle"
	"dita/internal/traj"
)

// Funnel correctness against brute force: each stage of the search
// funnel must match counts computed outside the cascade — partition
// populations from the engine's own layout, matches from exhaustive
// distance evaluation.
func TestSearchFunnelMatchesBruteForce(t *testing.T) {
	d := smallDataset(250, 7)
	m := measure.DTW{}
	opts := smallOpts(4)
	opts.Measure = m
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range gen.Queries(d, 8, 9) {
		tau := 0.05
		stats := SearchStats{Trace: obs.NewTrace("search")}
		got := e.Search(q, tau, &stats)
		checkSearch(t, "funnel", got, d.Trajs, m, q, tau)
		f := stats.Funnel
		if !f.Monotone() {
			t.Fatalf("q%d: funnel not monotone: %+v", qi, f)
		}
		if f.Matched != int64(len(got)) {
			t.Fatalf("q%d: matched=%d, %d results", qi, f.Matched, len(got))
		}
		// Stage 0: every partition of the engine is counted.
		if f.Partitions != int64(len(e.parts)) {
			t.Errorf("q%d: Partitions=%d, engine has %d", qi, f.Partitions, len(e.parts))
		}
		// Stage 1: relevant set from the global index, re-derived directly.
		rel := e.RelevantPartitions(q.Points, tau)
		if f.Relevant != int64(len(rel)) {
			t.Errorf("q%d: Relevant=%d, global index says %d", qi, f.Relevant, len(rel))
		}
		// Stage 2: considered = population of the relevant partitions.
		pop := 0
		for _, pid := range rel {
			pop += len(e.parts[pid].Trajs)
		}
		if f.Considered != int64(pop) {
			t.Errorf("q%d: Considered=%d, relevant partitions hold %d", qi, f.Considered, pop)
		}
		// The lower-bound filters must never prune a true match, so every
		// brute-force match survives to (and through) verification.
		if f.Verified < int64(len(got)) {
			t.Errorf("q%d: Verified=%d < %d true matches", qi, f.Verified, len(got))
		}
		// Legacy counters mirror the funnel.
		if stats.Candidates != int(f.TrieCands) || stats.Verified != int(f.Verified) || stats.Results != int(f.Matched) {
			t.Errorf("q%d: legacy stats diverge from funnel: %+v vs %+v", qi, stats, f)
		}
		// The trace's span funnels partition the stages exactly once, so
		// their sum is the whole-query funnel.
		if tf := stats.Trace.Funnel(); tf != f {
			t.Errorf("q%d: trace funnel %+v != stats funnel %+v", qi, tf, f)
		}
	}
}

// With a threshold so large nothing can be pruned, every stage must count
// the entire dataset: any funnel stage below N means a filter wrongly
// dropped a true match.
func TestSearchFunnelSaturates(t *testing.T) {
	d := smallDataset(120, 11)
	opts := smallOpts(3)
	opts.Measure = measure.DTW{}
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := d.Trajs[5]
	var stats SearchStats
	got := e.Search(q, 1e6, &stats)
	n := int64(d.Len())
	f := stats.Funnel
	if int64(len(got)) != n {
		t.Fatalf("saturating search returned %d of %d", len(got), n)
	}
	if f.Relevant != f.Partitions {
		t.Errorf("Relevant=%d != Partitions=%d at saturating τ", f.Relevant, f.Partitions)
	}
	for name, v := range map[string]int64{
		"Considered": f.Considered, "TrieCands": f.TrieCands,
		"AfterLength": f.AfterLength, "AfterCoverage": f.AfterCoverage,
		"Verified": f.Verified, "Matched": f.Matched,
	} {
		if v != n {
			t.Errorf("%s=%d, want %d (no filter may prune at saturating τ): %+v", name, v, n, f)
		}
	}
}

// Join funnel against brute force: exact matched count, exact stage-0/1
// counts from the bigraph, and trace/funnel agreement.
func TestJoinFunnelMatchesBruteForce(t *testing.T) {
	a := gen.Generate(gen.BeijingLike(90, 21))
	bcfg := gen.BeijingLike(70, 22)
	bcfg.Name = "B2"
	b := gen.Generate(bcfg)
	for _, tr := range b.Trajs {
		tr.ID += 10000
	}
	m := measure.DTW{}
	ea, eb := buildPair(t, a, b, m, 4)
	tau := 0.05
	stats := JoinStats{Trace: obs.NewTrace("join")}
	pairs := ea.Join(eb, tau, DefaultJoinOptions(), &stats)
	want := oracle.Join(a.Trajs, b.Trajs, m, tau)
	checkJoin(t, pairs, want, "funnel join")
	f := stats.Funnel
	if !f.Monotone() {
		t.Fatalf("join funnel not monotone: %+v", f)
	}
	if f.Matched != int64(len(want)) {
		t.Errorf("Matched=%d, brute force wants %d", f.Matched, len(want))
	}
	if f.Partitions != int64(len(ea.parts)*len(eb.parts)) {
		t.Errorf("Partitions=%d, bigraph has %d×%d pairs", f.Partitions, len(ea.parts), len(eb.parts))
	}
	if f.Relevant != int64(stats.Edges) {
		t.Errorf("Relevant=%d != Edges=%d", f.Relevant, stats.Edges)
	}
	if f.Verified < int64(len(want)) {
		t.Errorf("Verified=%d < %d true matches", f.Verified, len(want))
	}
	if int(f.TrieCands) != stats.CandPairs {
		t.Errorf("TrieCands=%d != CandPairs=%d", f.TrieCands, stats.CandPairs)
	}
	if tf := stats.Trace.Funnel(); tf != f {
		t.Errorf("trace funnel %+v != stats funnel %+v", tf, f)
	}
}

// The kNN funnel on outlier queries, where the whole-trajectory bounds do
// the pruning: no new stage — the envelope shows as fewer trie candidates
// than members considered, the box and point bounds are counted under
// coverage, every coverage survivor reached a distance kernel — and the
// chain stays monotone, in the engine's scan and in the overlay's
// brute-force one. On every measure with a box bound, the point bound
// rejects members the box bound let through, and the answers stay brute
// force's.
func TestKNNFunnelOutliers(t *testing.T) {
	const k = 10
	d := smallDataset(400, 13)
	m := measure.DTW{}
	opts := smallOpts(2)
	opts.Measure = m
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	meta := make([]VerifyMeta, d.Len())
	for i, tr := range d.Trajs {
		meta[i] = NewVerifyMeta(tr, 0)
	}
	var boxed, enveloped bool
	for qi, q := range gen.OutlierQueries(d, 14) {
		stats := SearchStats{Trace: obs.NewTrace("knn")}
		got := must(e.SearchKNNContext(context.Background(), q, k, &stats))
		checkKNN(t, "engine", got, d.Trajs, m, q, k)
		f := stats.Funnel
		if !f.Monotone() || f.Verified != f.AfterCoverage || f.Matched < k {
			t.Fatalf("q%d: engine funnel %+v", qi, f)
		}
		if tf := stats.Trace.Funnel(); tf.TrieCands != f.TrieCands || tf.AfterCoverage != f.AfterCoverage || tf.Verified != f.Verified {
			t.Errorf("q%d: knn-visit spans sum to %+v, stats funnel %+v", qi, tf, f)
		}
		enveloped = enveloped || f.TrieCands < f.Considered
		boxed = boxed || f.AfterCoverage < f.AfterLength

		acc := NewKNNAcc(k)
		lf, err := KNNScanLive(context.Background(), m, q.Points, d.Trajs, meta, acc, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		checkKNN(t, "live scan", acc.Results(), d.Trajs, m, q, k)
		if !lf.Monotone() || lf.Verified != lf.AfterCoverage || lf.TrieCands != int64(d.Len()) {
			t.Fatalf("q%d: live-scan funnel %+v", qi, lf)
		}
		if lf.AfterCoverage == lf.AfterLength {
			t.Errorf("q%d: live scan of %d members pruned none by box: %+v", qi, d.Len(), lf)
		}
	}
	if !enveloped || !boxed {
		t.Errorf("outlier queries never pruned by envelope (%v) or box (%v)", enveloped, boxed)
	}
	for _, m := range []measure.Measure{measure.DTW{}, measure.Frechet{}, measure.Hausdorff{}} {
		var pointed int64
		for qi, q := range gen.OutlierQueries(d, 14) {
			acc := NewKNNAcc(k)
			s := scanAll(m, q.Points, d.Trajs, meta, acc, math.Inf(1))
			checkKNN(t, m.Name()+" scan", acc.Results(), d.Trajs, m, q, k)
			n := int64(d.Len())
			if f := s.funnel(obs.Funnel{Considered: n, TrieCands: n}); !f.Monotone() || f.Verified != f.AfterCoverage {
				t.Errorf("%s q%d: funnel %+v does not count %d point rejections under coverage", m.Name(), qi, f, s.pointPruned)
			}
			pointed += s.pointPruned
		}
		if pointed == 0 {
			t.Errorf("%s: the point bound rejected no member of %d on outlier queries", m.Name(), d.Len())
		}
	}
}

// The point bound runs only when τ reaches the query box's diagonal, where
// the DP's band is wide. A scan handed a τ_k below the diagonal up front —
// a fan-out visit's cap — never evaluates it, and still finds brute force's
// answer; one handed the same query with τ at the diagonal does evaluate it.
func TestKNNPointBoundGate(t *testing.T) {
	const k = 10
	d := smallDataset(300, 17)
	meta := make([]VerifyMeta, d.Len())
	for i, tr := range d.Trajs {
		meta[i] = NewVerifyMeta(tr, 0)
	}
	for _, m := range []measure.Measure{measure.DTW{}, measure.Frechet{}, measure.Hausdorff{}} {
		narrow := 0
		for qi, q := range gen.Queries(d, 12, 18) {
			tauK := oracle.KNN(d.Trajs, m, q, k)[k-1].Distance
			qm := q.MBR()
			diag := qm.Min.Dist(qm.Max)
			if tauK >= diag {
				continue
			}
			narrow++
			acc := NewKNNAcc(k)
			s := scanAll(m, q.Points, d.Trajs, meta, acc, tauK)
			checkKNN(t, fmt.Sprintf("%s q%d at τ_k", m.Name(), qi), acc.Results(), d.Trajs, m, q, k)
			if s.pointRuns != 0 {
				t.Errorf("%s q%d: τ_k %v below the query box's diagonal %v, yet the point bound ran %d times",
					m.Name(), qi, tauK, diag, s.pointRuns)
			}
			if s = scanAll(m, q.Points, d.Trajs, meta, NewKNNAcc(k), diag); s.pointRuns == 0 {
				t.Errorf("%s q%d: the point bound never ran at τ = the diagonal %v", m.Name(), qi, diag)
			}
		}
		if narrow == 0 {
			t.Errorf("%s: no query's τ_k fell below its box diagonal; the gate went untested", m.Name())
		}
	}
}

// scanAll runs one kNN scan over members in slot order, as KNNScanLive does,
// and returns it, so a test can read the counts funnel folds together.
func scanAll(m measure.Measure, q []geom.Point, members []*traj.T, meta []VerifyMeta, acc *KNNAcc, capTau float64) *knnScan {
	s := newKNNScan(m, q, acc, capTau)
	for i, tr := range members {
		s.verify(tr, meta[i], s.tau())
	}
	return &s
}
