package core

import (
	"context"
	"math"
	"testing"

	"dita/internal/gen"
	"dita/internal/measure"
	"dita/internal/obs"
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
		want := bruteSearch(d, m, q, tau)
		stats := SearchStats{Trace: obs.NewTrace("search")}
		got := e.Search(q, tau, &stats)
		f := stats.Funnel
		if !f.Monotone() {
			t.Fatalf("q%d: funnel not monotone: %+v", qi, f)
		}
		if len(got) != len(want) || f.Matched != int64(len(want)) {
			t.Fatalf("q%d: matched=%d results=%d, brute force wants %d", qi, f.Matched, len(got), len(want))
		}
		// Stage 0: every partition of the engine is counted.
		if f.Partitions != int64(len(e.parts)) {
			t.Errorf("q%d: Partitions=%d, engine has %d", qi, f.Partitions, len(e.parts))
		}
		// Stage 1: relevant set from the global index, re-derived directly.
		rel := e.relevantPartitions(q.Points, tau)
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
		if f.Verified < int64(len(want)) {
			t.Errorf("q%d: Verified=%d < %d true matches", qi, f.Verified, len(want))
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
	want := bruteJoin(a, b, m, tau)
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
// than members considered, the box bound is counted under coverage, every
// coverage survivor reached a distance kernel — and the chain stays
// monotone, in the engine's scan and in the overlay's brute-force one.
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
		checkKNNBitwise(t, "engine", got, d.Trajs, m, q, k)
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
		checkKNNBitwise(t, "live scan", acc.Results(), d.Trajs, m, q, k)
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
}
