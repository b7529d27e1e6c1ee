package core

import (
	"context"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"dita/internal/cluster"
	"dita/internal/gen"
	"dita/internal/measure"
	"dita/internal/obs"
	"dita/internal/snap"
	"dita/internal/traj"
	"dita/internal/wal"
)

// Ablation benchmarks for the verification cascade (Section 5.3.3): raw
// threshold DTW on every candidate vs the full length→coverage→DTW
// pipeline, one query against a whole dataset.

func benchCandidates(b *testing.B) (*traj.Dataset, *traj.T, []trajMeta) {
	b.Helper()
	d := gen.Generate(gen.BeijingLike(2000, 3))
	q := gen.Queries(d, 1, 4)[0]
	meta := make([]trajMeta, d.Len())
	for i, t := range d.Trajs {
		meta[i] = newTrajMeta(t)
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

// BenchmarkVerifyFullCascade runs Verifier.Verify over the pair sets of
// measure's BenchmarkDTWThreshold (gen.VerifyWorkloads), so the cascade's
// cost reads against the bare kernel's on the same input. One Verifier per
// query, as in a search.
func BenchmarkVerifyFullCascade(b *testing.B) {
	for _, w := range gen.VerifyWorkloads {
		ts, qs := w.Pairs(4096)
		meta := make([]trajMeta, len(ts))
		vs := make([]*Verifier, len(ts))
		for i, t := range ts {
			meta[i] = newTrajMeta(t)
			if i > 0 && qs[i] == qs[i-1] {
				vs[i] = vs[i-1]
			} else {
				vs[i] = NewVerifier(measure.DTW{}, qs[i].Points, w.Tau, 0)
			}
		}
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := i % len(ts)
				vs[j].Verify(ts[j], meta[j])
			}
		})
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
		if _, err := KNNScanPartition(ctx, m, q.Points, p.Index, p.Trajs, p.meta, nil, acc, math.Inf(1)); err != nil {
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
			f, err := KNNScanPartition(ctx, m, qs[qi].Points, p.Index, p.Trajs, p.meta, nil, NewKNNAcc(k), capTau(qi))
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

// BenchmarkKNNOutlier is the kNN tail as a unit-level number: the
// repository benchmark's corpus (100 k BeijingLike members, one virtual
// worker, sequential verification) and, of its 400-query kNN pool, the ten
// queries with the largest 10th-neighbour distance — the outliers whose τ
// the endpoint and pivot bounds cannot use, which are its slowest. Ranking by
// τ_k rather than by time keeps the ten the same across commits. cands/op
// and verified/op are the members the tries handed over and the distance
// computations run, per query.
func BenchmarkKNNOutlier(b *testing.B) {
	const k = 10
	opts := DefaultOptions()
	opts.VerifyParallelism = 1
	opts.Cluster = cluster.New(cluster.DefaultConfig(1))
	d := gen.Generate(gen.BeijingLike(100_000, 20180610))
	e, err := NewEngine(d, opts)
	if err != nil {
		b.Fatal(err)
	}
	pool := append([]*traj.T(nil), d.Trajs[2000:2400]...)
	kth := make(map[*traj.T]float64, len(pool))
	for _, q := range pool {
		res := e.SearchKNN(q, k)
		kth[q] = res[len(res)-1].Distance
	}
	sort.SliceStable(pool, func(i, j int) bool { return kth[pool[i]] > kth[pool[j]] })
	qs := pool[:10]
	var cands, verified int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st SearchStats
		e.SearchKNNContext(context.Background(), qs[i%len(qs)], k, &st)
		cands += st.Funnel.TrieCands
		verified += st.Funnel.Verified
	}
	b.ReportMetric(float64(cands)/float64(b.N), "cands/op")
	b.ReportMetric(float64(verified)/float64(b.N), "verified/op")
}

// BenchmarkSelfJoin is the repository benchmark's join (12 k BeijingLike
// members, τ = 0.003, sequential verification, one virtual worker): self
// joins an engine with itself, twoEngines with a second engine over the
// same dataset — the same answer without the symmetric plan. verified/op is
// the number of exact threshold DPs a join ran.
func BenchmarkSelfJoin(b *testing.B) {
	d := gen.Generate(gen.BeijingLike(12000, 1))
	build := func() *Engine {
		opts := DefaultOptions()
		opts.VerifyParallelism = 1
		opts.Cluster = cluster.New(cluster.DefaultConfig(1))
		e, err := NewEngine(d, opts)
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	e := build()
	run := func(b *testing.B, other *Engine) {
		var verified int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var js JoinStats
			e.Join(other, 0.003, DefaultJoinOptions(), &js)
			verified += js.Funnel.Verified
		}
		b.ReportMetric(float64(verified)/float64(b.N), "verified/op")
	}
	b.Run("self", func(b *testing.B) { run(b, e) })
	b.Run("twoEngines", func(b *testing.B) { run(b, build()) })
}

// BenchmarkEngineSearchLayout runs one fixed pool of searches, shaped like
// the repository benchmark's (100 k BeijingLike members, τ = 0.01,
// sequential verification, one virtual worker), on a built engine and on
// that engine restored from its own images. The two hold the same tries and
// give the same answers; only where the members' points lie can differ, so
// the gap between the rows is what the built engine's layout costs.
func BenchmarkEngineSearchLayout(b *testing.B) {
	d := gen.Generate(gen.BeijingLike(100_000, 1))
	opts := DefaultOptions()
	opts.VerifyParallelism = 1
	opts.Cluster = cluster.New(cluster.DefaultConfig(1))
	built, err := NewEngine(d, opts)
	if err != nil {
		b.Fatal(err)
	}
	var snaps []*snap.Snapshot
	for _, p := range built.Partitions() {
		s, err := snap.Decode(snap.Encode(built.ExportSnapshot("layout", p)))
		if err != nil {
			b.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	restored, err := NewEngineFromSnapshots(snaps, opts)
	if err != nil {
		b.Fatal(err)
	}
	qs := gen.Queries(d, 2000, 11)
	for _, c := range []struct {
		name string
		e    *Engine
	}{{"built", built}, {"restored", restored}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.e.Search(qs[i%len(qs)], 0.01, nil)
			}
		})
	}
}

// BenchmarkInsertBesideSearches times single inserts into the engine the
// repository benchmark's engine_mix runs (100 k BeijingLike members,
// sequential verification, one virtual worker, a WAL and snapshot store in a
// temporary directory): alone, and with one goroutine looping searches over
// the 2 000-query pool of BenchmarkEngineSearchLayout (τ = 0.01) beside
// them. It reports each insert's p50 and p95 and, from the engine's
// registry, the p50 and mean of engine_write_lock_wait_us (a mutation's wait
// for the engine lock) and of engine_wal_append_us (its log append, fsync
// included); the histograms' percentiles are power-of-two bucket bounds.
// allocs/op counts the search loop's allocations too.
func BenchmarkInsertBesideSearches(b *testing.B) {
	d := gen.Generate(gen.BeijingLike(100_000, 1))
	qs := gen.Queries(d, 2000, 11)
	pool := gen.Generate(gen.BeijingLike(4096, 2)).Trajs
	dir := b.TempDir()
	ws, err := wal.NewStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	ss, err := snap.NewStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.VerifyParallelism = 1
	opts.Cluster = cluster.New(cluster.DefaultConfig(1))
	e, err := NewEngine(d, opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.EnableIngest(IngestConfig{WAL: ws, Snap: ss}); err != nil {
		b.Fatal(err)
	}
	defer e.CloseIngest()
	next := 0
	run := func(b *testing.B, searches bool) {
		// A fresh registry per run, read only by this run's inserts.
		reg := obs.New()
		e.met = newEngineMetrics(reg)
		defer func() { e.met = nil }()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if searches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					e.Search(qs[i%len(qs)], 0.01, nil)
				}
			}()
		}
		lat := make([]time.Duration, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := range lat {
			t := pool[next%len(pool)].Clone()
			t.ID = 1<<20 + next
			next++
			start := time.Now()
			if err := e.Insert(t); err != nil {
				b.Fatal(err)
			}
			lat[i] = time.Since(start)
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
		slices.Sort(lat)
		us := func(p float64) float64 { return float64(lat[int(p*float64(len(lat)-1))].Nanoseconds()) / 1e3 }
		b.ReportMetric(us(0.50), "p50_us")
		b.ReportMetric(us(0.95), "p95_us")
		hs := reg.Snapshot().Histograms
		wait, appended := hs["engine_write_lock_wait_us"], hs["engine_wal_append_us"]
		b.ReportMetric(float64(wait.P50), "lockwait_p50_us")
		b.ReportMetric(wait.Mean(), "lockwait_mean_us")
		b.ReportMetric(float64(appended.P50), "walappend_p50_us")
		b.ReportMetric(appended.Mean(), "walappend_mean_us")
	}
	b.Run("alone", func(b *testing.B) { run(b, false) })
	b.Run("searching", func(b *testing.B) { run(b, true) })
}
