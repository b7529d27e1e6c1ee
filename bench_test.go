package dita_test

// Benchmarks regenerating the paper's evaluation, one per table/figure
// (reduced sweeps — cmd/ditabench runs the full parameter grids), plus
// micro-benchmarks of the core primitives. Run with:
//
//	go test -bench=. -benchmem
//
// Naming: BenchmarkFig7SearchVaryTau corresponds to the paper's Figure 7,
// and so on; see DESIGN.md's per-experiment index.

import (
	"testing"

	"dita"
	"dita/internal/exp"
	"dita/internal/measure"
)

// benchConfig is the reduced scale used inside testing.B iterations.
func benchConfig() exp.Config {
	cfg := exp.DefaultConfig()
	cfg.NBeijing, cfg.NChengdu, cfg.NOSM, cfg.NJoin = 1200, 1200, 600, 400
	cfg.Queries = 20
	cfg.Workers = 4
	return cfg
}

// benchExp runs one experiment per iteration.
func benchExp(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 7.2.1: distributed search (Figures 7, 8) ---------------------

func BenchmarkFig7aSearchVaryTauBeijing(b *testing.B)     { benchExp(b, "fig7a") }
func BenchmarkFig7bSearchScalabilityBeijing(b *testing.B) { benchExp(b, "fig7b") }
func BenchmarkFig7cSearchScaleUpBeijing(b *testing.B)     { benchExp(b, "fig7c") }
func BenchmarkFig7dSearchScaleOutBeijing(b *testing.B)    { benchExp(b, "fig7d") }
func BenchmarkFig8aSearchVaryTauChengdu(b *testing.B)     { benchExp(b, "fig8a") }
func BenchmarkFig8bSearchScalabilityChengdu(b *testing.B) { benchExp(b, "fig8b") }
func BenchmarkFig8cSearchScaleUpChengdu(b *testing.B)     { benchExp(b, "fig8c") }
func BenchmarkFig8dSearchScaleOutChengdu(b *testing.B)    { benchExp(b, "fig8d") }

// --- Section 7.2.2: distributed join (Figures 9, 10) ----------------------

func BenchmarkFig9aJoinVaryTauBeijing(b *testing.B)      { benchExp(b, "fig9a") }
func BenchmarkFig9bJoinScalabilityBeijing(b *testing.B)  { benchExp(b, "fig9b") }
func BenchmarkFig9cJoinScaleUpBeijing(b *testing.B)      { benchExp(b, "fig9c") }
func BenchmarkFig9dJoinScaleOutBeijing(b *testing.B)     { benchExp(b, "fig9d") }
func BenchmarkFig10aJoinVaryTauChengdu(b *testing.B)     { benchExp(b, "fig10a") }
func BenchmarkFig10bJoinScalabilityChengdu(b *testing.B) { benchExp(b, "fig10b") }
func BenchmarkFig10cJoinScaleUpChengdu(b *testing.B)     { benchExp(b, "fig10c") }
func BenchmarkFig10dJoinScaleOutChengdu(b *testing.B)    { benchExp(b, "fig10d") }

// --- Section 7.3: large datasets (Figure 11) -------------------------------

func BenchmarkFig11aSearchOSMDTW(b *testing.B)     { benchExp(b, "fig11a") }
func BenchmarkFig11bJoinOSMDTW(b *testing.B)       { benchExp(b, "fig11b") }
func BenchmarkFig11cSearchOSMFrechet(b *testing.B) { benchExp(b, "fig11c") }
func BenchmarkFig11dJoinOSMFrechet(b *testing.B)   { benchExp(b, "fig11d") }

// --- Appendix B ablations (Figures 12-16, Table 4-5) -----------------------

func BenchmarkFig12aPivotStrategyBeijing(b *testing.B) { benchExp(b, "fig12a") }
func BenchmarkFig12bPivotStrategyChengdu(b *testing.B) { benchExp(b, "fig12b") }
func BenchmarkFig12cPivotSizeBeijing(b *testing.B)     { benchExp(b, "fig12c") }
func BenchmarkFig12dPivotSizeChengdu(b *testing.B)     { benchExp(b, "fig12d") }
func BenchmarkFig13aPartitioningBeijing(b *testing.B)  { benchExp(b, "fig13a") }
func BenchmarkFig13bPartitioningChengdu(b *testing.B)  { benchExp(b, "fig13b") }
func BenchmarkFig14aVaryNLBeijing(b *testing.B)        { benchExp(b, "fig14a") }
func BenchmarkFig14bVaryNLChengdu(b *testing.B)        { benchExp(b, "fig14b") }
func BenchmarkFig15aOtherDistances(b *testing.B)       { benchExp(b, "fig15a") }
func BenchmarkFig15bEditDistances(b *testing.B)        { benchExp(b, "fig15b") }
func BenchmarkFig16aLoadRatioBeijing(b *testing.B)     { benchExp(b, "fig16a") }
func BenchmarkFig16bLoadRatioChengdu(b *testing.B)     { benchExp(b, "fig16b") }
func BenchmarkFig16cBalancingTimeBeijing(b *testing.B) { benchExp(b, "fig16c") }
func BenchmarkFig16dBalancingTimeChengdu(b *testing.B) { benchExp(b, "fig16d") }
func BenchmarkTable1WorkedExample(b *testing.B)        { benchExp(b, "table1") }
func BenchmarkTable2DatasetStats(b *testing.B)         { benchExp(b, "table2") }
func BenchmarkTable4VaryNG(b *testing.B)               { benchExp(b, "table4") }
func BenchmarkTable5IndexingTimeSize(b *testing.B)     { benchExp(b, "table5") }

// --- Appendix C centralized comparison (Figure 17, Table 7) ----------------

func BenchmarkFig17aCentralCandidatesDTW(b *testing.B)     { benchExp(b, "fig17a") }
func BenchmarkFig17bCentralTimeDTW(b *testing.B)           { benchExp(b, "fig17b") }
func BenchmarkFig17cCentralCandidatesFrechet(b *testing.B) { benchExp(b, "fig17c") }
func BenchmarkFig17dCentralTimeFrechet(b *testing.B)       { benchExp(b, "fig17d") }
func BenchmarkTable7CentralIndexing(b *testing.B)          { benchExp(b, "table7") }

// --- Micro-benchmarks of the core primitives -------------------------------

func benchTrajs(n int) *dita.Dataset {
	return dita.Generate(dita.BeijingLike(n, 1))
}

func BenchmarkDTWExact(b *testing.B) {
	d := benchTrajs(200)
	m := measure.DTW{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := d.Trajs[i%100]
		c := d.Trajs[100+i%100]
		m.Distance(a.Points, c.Points)
	}
}

func BenchmarkDTWThresholdDoubleDirection(b *testing.B) {
	d := benchTrajs(200)
	m := measure.DTW{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := d.Trajs[i%100]
		c := d.Trajs[100+i%100]
		m.DistanceThreshold(a.Points, c.Points, 0.003)
	}
}

func BenchmarkFrechetThreshold(b *testing.B) {
	d := benchTrajs(200)
	m := measure.Frechet{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := d.Trajs[i%100]
		c := d.Trajs[100+i%100]
		m.DistanceThreshold(a.Points, c.Points, 0.003)
	}
}

func BenchmarkEngineBuild(b *testing.B) {
	d := benchTrajs(2000)
	opts := dita.DefaultOptions()
	opts.Cluster = dita.NewCluster(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dita.NewEngine(d, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineSearch(b *testing.B) {
	d := benchTrajs(5000)
	opts := dita.DefaultOptions()
	opts.Cluster = dita.NewCluster(4)
	e, err := dita.NewEngine(d, opts)
	if err != nil {
		b.Fatal(err)
	}
	qs := dita.Queries(d, 100, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Search(qs[i%len(qs)], 0.003, nil)
	}
}

func BenchmarkEngineKNN(b *testing.B) {
	d := benchTrajs(5000)
	opts := dita.DefaultOptions()
	opts.Cluster = dita.NewCluster(4)
	e, err := dita.NewEngine(d, opts)
	if err != nil {
		b.Fatal(err)
	}
	qs := dita.Queries(d, 100, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SearchKNN(qs[i%len(qs)], 10)
	}
}

func BenchmarkEngineSelfJoin(b *testing.B) {
	d := benchTrajs(800)
	opts := dita.DefaultOptions()
	opts.NG = 4
	opts.Cluster = dita.NewCluster(4)
	e1, err := dita.NewEngine(d, opts)
	if err != nil {
		b.Fatal(err)
	}
	e2, err := dita.NewEngine(d, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e1.Join(e2, 0.002, dita.DefaultJoinOptions(), nil)
	}
}

func BenchmarkSQLSearch(b *testing.B) {
	d := benchTrajs(2000)
	db := dita.NewDB(dita.NewCluster(4), dita.DefaultOptions())
	db.Register("t", d)
	if _, err := db.Exec("CREATE INDEX i ON t USE TRIE"); err != nil {
		b.Fatal(err)
	}
	q := dita.Queries(d, 1, 3)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("SELECT * FROM t WHERE DTW(t, ?) <= 0.003", q); err != nil {
			b.Fatal(err)
		}
	}
}
