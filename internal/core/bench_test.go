package core

import (
	"context"
	"math"
	"testing"

	"dita/internal/gen"
	"dita/internal/measure"
	"dita/internal/traj"
)

// Ablation benchmarks for the verification cascade (Section 5.3.3): raw
// threshold DTW on every candidate vs the full coverage→cell→DTW pipeline.

func benchCandidates(b *testing.B) (*traj.Dataset, *traj.T, []trajMeta) {
	b.Helper()
	d := gen.Generate(gen.BeijingLike(2000, 3))
	q := gen.Queries(d, 1, 4)[0]
	meta := make([]trajMeta, d.Len())
	for i, t := range d.Trajs {
		meta[i] = newTrajMeta(t, 0.01)
	}
	return d, q, meta
}

func BenchmarkVerifyRawDTW(b *testing.B) {
	d, q, _ := benchCandidates(b)
	m := measure.DTW{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := d.Trajs[i%d.Len()]
		m.DistanceThreshold(t.Points, q.Points, 0.003)
	}
}

func BenchmarkVerifyFullCascade(b *testing.B) {
	d, q, meta := benchCandidates(b)
	v := NewVerifier(measure.DTW{}, q.Points, 0.003, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % d.Len()
		v.Verify(d.Trajs[j], meta[j])
	}
}

func BenchmarkPAMDFilter(b *testing.B) {
	d, q, _ := benchCandidates(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := d.Trajs[i%d.Len()]
		PAMDK(t.Points, q.Points, 4, 0)
	}
}

func BenchmarkTrieFilterPerQuery(b *testing.B) {
	d := gen.Generate(gen.BeijingLike(5000, 5))
	e, err := NewEngine(d, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	qs := gen.Queries(d, 64, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		for _, p := range e.parts {
			p.Index.Search(q.Points, e.opts.Measure, 0.003, nil)
		}
	}
}

// BenchmarkKNNScanPartition times the per-partition kNN scan both network
// roles run it in, on one 1.5 k-member partition at k=10: tauInf is the
// pilot (or the engine's first visit) — an empty accumulator and no cap, so
// the scan must find its own top-k; tauFinite is a fan-out visit — an empty
// accumulator capped at a τ another partition already established (here the
// query's own k-th distance, the tightest cap that keeps all k answers).
// verified/op is the number of exact or threshold distance computations.
func BenchmarkKNNScanPartition(b *testing.B) {
	const k = 10
	opts := DefaultOptions()
	opts.NG = 1
	e, err := NewEngine(gen.Generate(gen.BeijingLike(1500, 7)), opts)
	if err != nil {
		b.Fatal(err)
	}
	p, m, ctx := e.parts[0], e.opts.Measure, context.Background()
	qs := gen.Queries(e.dataset, 64, 8)
	kth := make([]float64, len(qs))
	for i, q := range qs {
		acc := NewKNNAcc(k)
		if _, err := KNNScanPartition(ctx, m, q.Points, p.Index, p.Trajs, p.meta, nil, e.cellD, acc, math.Inf(1)); err != nil {
			b.Fatal(err)
		}
		kth[i] = acc.Tau()
	}
	run := func(b *testing.B, capTau func(qi int) float64) {
		var verified int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			qi := i % len(qs)
			f, err := KNNScanPartition(ctx, m, qs[qi].Points, p.Index, p.Trajs, p.meta, nil, e.cellD, NewKNNAcc(k), capTau(qi))
			if err != nil {
				b.Fatal(err)
			}
			verified += f.Verified
		}
		b.ReportMetric(float64(verified)/float64(b.N), "verified/op")
	}
	b.Run("tauInf", func(b *testing.B) { run(b, func(int) float64 { return math.Inf(1) }) })
	b.Run("tauFinite", func(b *testing.B) { run(b, func(qi int) float64 { return kth[qi] }) })
}
