package dnet

import (
	"context"
	"strings"
	"testing"

	"dita/internal/gen"
	"dita/internal/measure"
	"dita/internal/obs"
	"dita/internal/oracle"
)

// A traced network search must yield a coordinator-assembled trace with
// one span per relevant partition (worker address, remote compute time,
// partition-local funnel), a monotone whole-query funnel whose Matched
// equals the brute-force answer, and trace-span funnels that sum to the
// whole-query funnel without double counting.
func TestTracedSearchAssemblesClusterTrace(t *testing.T) {
	reg := obs.New()
	cfg := testConfig()
	cfg.Obs = reg
	c, stop := startCluster(t, 3, cfg)
	defer stop()
	d := gen.Generate(gen.BeijingLike(300, 90))
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	q := gen.Queries(d, 1, 91)[0]
	tau := 0.01

	qs := &QueryStats{Trace: obs.NewTrace("search")}
	hits, report, err := c.SearchTraced(context.Background(), "trips", q, tau, qs)
	if err != nil {
		t.Fatal(err)
	}
	if report.Partial() {
		t.Fatalf("unexpected partial report: %+v", report.Skipped)
	}
	checkSearch(t, hits, d.Trajs, measure.DTW{}, q, tau)
	want := len(hits)
	f := qs.Funnel
	if !f.Monotone() {
		t.Fatalf("funnel not monotone: %s", f)
	}
	if f.Matched != int64(want) {
		t.Fatalf("funnel Matched = %d, want brute-force %d", f.Matched, want)
	}
	if f.Relevant == 0 || f.Considered == 0 {
		t.Fatalf("empty funnel: %s", f)
	}
	if qs.Attempts < int(f.Relevant) {
		t.Fatalf("attempts %d < relevant partitions %d", qs.Attempts, f.Relevant)
	}
	if qs.Elapsed <= 0 {
		t.Fatal("Elapsed not recorded")
	}

	// The trace must cover every relevant partition with a worker-scoped
	// span carrying remote time and the partition's funnel.
	spans := qs.Trace.Spans()
	names := map[string]int{}
	partSpans := map[int]obs.Span{}
	for _, s := range spans {
		names[s.Name]++
		if s.Name == "partition-search" {
			partSpans[s.Partition] = s
		}
	}
	for _, n := range []string{"admit", "global-prune", "merge"} {
		if names[n] != 1 {
			t.Fatalf("span %q count = %d, want 1 (spans: %v)", n, names[n], names)
		}
	}
	if len(partSpans) != int(f.Relevant) {
		t.Fatalf("%d partition spans, want %d", len(partSpans), f.Relevant)
	}
	for pid, s := range partSpans {
		if s.Worker == "" {
			t.Fatalf("partition %d span has no worker address", pid)
		}
		if s.Remote <= 0 {
			t.Fatalf("partition %d span has no remote time", pid)
		}
		if s.Attempts < 1 {
			t.Fatalf("partition %d span attempts = %d", pid, s.Attempts)
		}
		if s.Funnel == nil {
			t.Fatalf("partition %d span has no funnel", pid)
		}
	}
	// Funnel stages are partitioned across span kinds, so summing every
	// span's funnel reproduces the whole query's.
	if got := qs.Trace.Funnel(); got != f {
		t.Fatalf("trace funnel %s != query funnel %s", got, f)
	}

	// Coordinator metrics recorded the query.
	snap := reg.Snapshot()
	if snap.Counters["coord_searches_total"] != 1 {
		t.Fatalf("coord_searches_total = %d", snap.Counters["coord_searches_total"])
	}
	if snap.Counters["coord_search_funnel_matched_total"] != int64(want) {
		t.Fatalf("coord_search_funnel_matched_total = %d, want %d",
			snap.Counters["coord_search_funnel_matched_total"], want)
	}
	if snap.Histograms["coord_search_latency_us"].Count != 1 {
		t.Fatal("coord_search_latency_us not observed")
	}
}

// A traced join must produce edge spans with destination-local funnels
// and a whole-join funnel whose Matched equals the brute-force pair count.
func TestTracedJoinFunnelMatchesBruteForce(t *testing.T) {
	reg := obs.New()
	cfg := testConfig()
	cfg.Obs = reg
	c, stop := startCluster(t, 3, cfg)
	defer stop()
	a := gen.Generate(gen.BeijingLike(100, 92))
	b := gen.Generate(gen.BeijingLike(80, 92))
	for _, tr := range b.Trajs {
		tr.ID += 100000
	}
	if err := c.Dispatch("T", a); err != nil {
		t.Fatal(err)
	}
	if err := c.Dispatch("Q", b); err != nil {
		t.Fatal(err)
	}
	tau := 0.01

	qs := &QueryStats{Trace: obs.NewTrace("join")}
	pairs, report, err := c.JoinTraced(context.Background(), "T", "Q", tau, qs)
	if err != nil {
		t.Fatal(err)
	}
	if report.Partial() {
		t.Fatalf("unexpected partial report: %+v", report.Skipped)
	}
	checkJoin(t, pairs, oracle.Join(a.Trajs, b.Trajs, measure.DTW{}, tau))
	want := len(pairs)
	f := qs.Funnel
	if !f.Monotone() {
		t.Fatalf("join funnel not monotone: %s", f)
	}
	if f.Matched != int64(want) {
		t.Fatalf("funnel Matched = %d, want %d", f.Matched, want)
	}
	edgeSpans, liveEdges := 0, 0
	for _, s := range qs.Trace.Spans() {
		if s.Name != "edge-join" {
			continue
		}
		edgeSpans++
		if s.Worker == "" || !strings.Contains(s.Worker, ">") {
			t.Fatalf("edge span worker %q should be src>dst", s.Worker)
		}
		if s.Funnel == nil {
			t.Fatalf("edge span missing funnel: %+v", s)
		}
		// Edges whose selection shipped nothing legitimately report an
		// empty funnel and sub-microsecond remote time.
		if s.Funnel.Considered > 0 && s.Remote > 0 {
			liveEdges++
		}
	}
	if edgeSpans != int(f.Relevant) {
		t.Fatalf("%d edge spans, want %d bigraph edges", edgeSpans, f.Relevant)
	}
	if liveEdges == 0 {
		t.Fatal("no edge span carried work (funnel + remote time)")
	}
	if got := qs.Trace.Funnel(); got != f {
		t.Fatalf("trace funnel %s != query funnel %s", got, f)
	}
	snap := reg.Snapshot()
	if snap.Counters["coord_joins_total"] != 1 {
		t.Fatalf("coord_joins_total = %d", snap.Counters["coord_joins_total"])
	}
}

// Under the chaos transport severing connections after a fixed op budget,
// a traced search must eventually record a span with Attempts > 1 (the
// injected retry), the retry counter must advance, and every answer must
// still match brute force.
func TestTracedSearchInjectedRetry(t *testing.T) {
	plan := &FaultPlan{Seed: 13, SeverAfter: 300}
	reg := obs.New()
	var workers []*Worker
	var addrs []string
	for i := 0; i < 2; i++ {
		w := NewWorker()
		w.FaultInjection = plan
		addr, err := w.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		addrs = append(addrs, addr)
	}
	cfg := testConfig()
	cfg.Obs = reg
	cfg.Retry.MaxAttempts = 12
	c, err := Connect(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		for _, w := range workers {
			w.Close()
		}
	})
	d := gen.Generate(gen.BeijingLike(120, 93))
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	m := measure.DTW{}
	tau := 0.01
	sawRetry := false
	for round := 0; round < 60 && !sawRetry; round++ {
		for _, q := range gen.Queries(d, 4, int64(94+round)) {
			qs := &QueryStats{Trace: obs.NewTrace("search")}
			hits, _, err := c.SearchTraced(context.Background(), "trips", q, tau, qs)
			if err != nil {
				t.Fatal(err)
			}
			checkSearch(t, hits, d.Trajs, m, q, tau)
			if !qs.Funnel.Monotone() {
				t.Fatalf("funnel not monotone under chaos: %s", qs.Funnel)
			}
			for _, s := range qs.Trace.Spans() {
				if s.Name == "partition-search" && s.Attempts > 1 && s.Err == "" {
					sawRetry = true
				}
			}
		}
	}
	if !sawRetry {
		t.Fatal("no traced search recorded a retried attempt under the sever plan")
	}
	if reg.Snapshot().Counters["coord_rpc_retries_total"] == 0 {
		t.Fatal("coord_rpc_retries_total did not advance")
	}
}

// Skip reports must say how hard the coordinator tried: attempts, elapsed
// time, and a coarse error class.
func TestSkippedPartitionCarriesAttemptsElapsedClass(t *testing.T) {
	reg := obs.New()
	cfg := testConfig()
	cfg.Obs = reg
	cfg.AllowPartial = true
	cfg.Retry.MaxAttempts = 2
	var workers []*Worker
	var addrs []string
	for i := 0; i < 2; i++ {
		w := NewWorker()
		addr, err := w.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		addrs = append(addrs, addr)
	}
	c, err := Connect(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	d := gen.Generate(gen.BeijingLike(100, 95))
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		w.Close() // kill every worker: all partitions must be skipped
	}
	q := gen.Queries(d, 1, 96)[0]
	qs := &QueryStats{Trace: obs.NewTrace("search")}
	hits, report, err := c.SearchTraced(context.Background(), "trips", q, 0.01, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 || !report.Partial() {
		t.Fatalf("expected fully-partial result, got %d hits, report %+v", len(hits), report)
	}
	for _, s := range report.Skipped {
		if s.Attempts < 1 {
			t.Fatalf("skip %+v has no attempts", s)
		}
		if s.Elapsed <= 0 {
			t.Fatalf("skip %+v has no elapsed time", s)
		}
		if s.Class != obs.ClassTransport {
			t.Fatalf("skip %+v class = %q, want transport", s, s.Class)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["coord_partition_skips_total"]; got != int64(len(report.Skipped)) {
		t.Fatalf("coord_partition_skips_total = %d, want %d", got, len(report.Skipped))
	}
	if snap.Counters["coord_partition_skips_transport_total"] == 0 {
		t.Fatal("per-class skip counter did not advance")
	}
	// Skip spans still land on the trace, with the error class attached.
	found := false
	for _, s := range qs.Trace.Spans() {
		if s.Name == "partition-search" && s.Err != "" && s.Class == obs.ClassTransport {
			found = true
		}
	}
	if !found {
		t.Fatal("no skip span recorded on the trace")
	}
}

// Worker.Instrument must expose the queries-inflight gauge (zero at rest)
// and the cumulative call counters.
func TestWorkerInstrument(t *testing.T) {
	reg := obs.New()
	var workers []*Worker
	var addrs []string
	for i := 0; i < 2; i++ {
		w := NewWorker()
		w.Instrument(reg) // both workers share one registry in-process
		addr, err := w.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		addrs = append(addrs, addr)
	}
	c, err := Connect(addrs, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		for _, w := range workers {
			w.Close()
		}
	})
	d := gen.Generate(gen.BeijingLike(100, 97))
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	for _, q := range gen.Queries(d, 3, 98) {
		if _, err := c.Search("trips", q, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	// Both workers registered the same gauge names; the registry keeps the
	// last registration, so assert through each worker's own accessor plus
	// the scrape of the last one.
	for i, w := range workers {
		if got := w.Inflight(); got != 0 {
			t.Fatalf("worker %d inflight = %d at rest", i, got)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["worker_queries_inflight"]; got != 0 {
		t.Fatalf("worker_queries_inflight = %d at rest", got)
	}
	if snap.Gauges["worker_partitions"] == 0 {
		t.Fatal("worker_partitions gauge empty after dispatch")
	}
}
