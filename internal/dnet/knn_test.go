package dnet

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"dita/internal/core"
	"dita/internal/gen"
	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/obs"
	"dita/internal/oracle"
	"dita/internal/traj"
	"dita/internal/trie"
)

// TestNetKNNMatchesLocal: network-mode kNN over a live 3-worker TCP
// cluster must return exactly what the local engine's SearchKNN returns
// over the same data — which in turn must be the brute-force top-k — on
// every measure whose scan prunes with the box and point bounds: DTW's sum
// and Fréchet's and Hausdorff's max, run by the workers' scans too.
// On the DTW cluster the traced variant must assemble knn-plan /
// knn-round / partition-knn spans with a monotone whole-query funnel.
func TestNetKNNMatchesLocal(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(400, 110))
	for _, m := range []measure.Measure{measure.DTW{}, measure.Frechet{}, measure.Hausdorff{}} {
		checkNetKNNMatchesLocal(t, d, m)
	}
}

// checkNetKNNMatchesLocal runs TestNetKNNMatchesLocal's checks for one
// measure on a cluster of its own, stopped before it returns.
func checkNetKNNMatchesLocal(t *testing.T, d *traj.Dataset, m measure.Measure) {
	t.Helper()
	cfg := testConfig()
	cfg.Measure = MeasureSpec{Name: m.Name()}
	c, stop := startCluster(t, 3, cfg)
	defer stop()
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.NG = 3
	opts.Measure = m
	opts.Trie = trie.DefaultConfig()
	opts.Trie.MinNode = 2
	e, err := core.NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range append(gen.Queries(d, 5, 111), gen.OutlierQueries(d, 113)...) {
		for _, k := range []int{1, 3, 10, d.Len() + 5} {
			var lhits []SearchHit
			for _, r := range e.SearchKNN(q, k) {
				lhits = append(lhits, SearchHit{ID: r.Traj.ID, Distance: r.Distance})
			}
			checkKNN(t, fmt.Sprintf("query %d: local engine", qi), lhits, d.Trajs, m, q, k)
			got, err := c.SearchKNN("trips", q, k)
			if err != nil {
				t.Fatalf("%s query %d k=%d: %v", m.Name(), qi, k, err)
			}
			checkKNN(t, fmt.Sprintf("query %d: net", qi), got, d.Trajs, m, q, k)
		}
	}

	if m.Name() != (measure.DTW{}).Name() {
		return
	}
	// Traced run on the DTW cluster: per-round spans must be visible in the
	// assembled trace.
	q := gen.Queries(d, 1, 112)[0]
	qs := &QueryStats{Trace: obs.NewTrace("knn")}
	hits, report, err := c.SearchKNNTraced(context.Background(), "trips", q, 7, qs)
	if err != nil {
		t.Fatal(err)
	}
	if report.Partial() {
		t.Fatalf("unexpected partial report: %+v", report.Skipped)
	}
	checkKNN(t, "traced", hits, d.Trajs, m, q, 7)
	names := map[string]int{}
	partSpans := 0
	for _, s := range qs.Trace.Spans() {
		names[s.Name]++
		if s.Name == "partition-knn" {
			partSpans++
			if s.Worker == "" {
				t.Fatalf("partition-knn span for partition %d has no worker", s.Partition)
			}
			if s.Funnel == nil {
				t.Fatalf("partition-knn span for partition %d has no funnel", s.Partition)
			}
		}
	}
	if names["knn-plan"] != 1 {
		t.Fatalf("knn-plan spans = %d, want 1 (names: %v)", names["knn-plan"], names)
	}
	if names["knn-round"] < 1 {
		t.Fatalf("no knn-round spans (names: %v)", names)
	}
	if partSpans < 1 || int64(partSpans) != qs.Funnel.Relevant {
		t.Fatalf("partition-knn spans = %d, want funnel.Relevant = %d", partSpans, qs.Funnel.Relevant)
	}
	if !qs.Funnel.Monotone() {
		t.Fatalf("funnel not monotone: %s", qs.Funnel)
	}
	if qs.Elapsed <= 0 {
		t.Fatal("Elapsed not recorded")
	}
}

// TestNetKNNEdgeCases: degenerate inputs short-circuit cleanly.
func TestNetKNNEdgeCases(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(40, 113))
	c, stop := startCluster(t, 2, testConfig())
	defer stop()
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	q := d.Trajs[0]
	if hits, err := c.SearchKNN("trips", q, 0); err != nil || hits != nil {
		t.Fatalf("k=0: hits=%v err=%v, want nil/nil", hits, err)
	}
	if hits, err := c.SearchKNN("trips", nil, 3); err != nil || hits != nil {
		t.Fatalf("nil query: hits=%v err=%v, want nil/nil", hits, err)
	}
	if _, err := c.SearchKNN("nope", q, 3); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	// k beyond the dataset saturates at every trajectory, no Inf padding.
	hits, err := c.SearchKNN("trips", q, d.Len()+100)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != d.Len() {
		t.Fatalf("k>n returned %d hits, want %d", len(hits), d.Len())
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Distance < hits[i-1].Distance ||
			(hits[i].Distance == hits[i-1].Distance && hits[i].ID <= hits[i-1].ID) {
			t.Fatalf("hits not in ascending (distance, ID) order at %d", i)
		}
	}
	// A cancelled context fails the query rather than returning a partial
	// top-k.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.SearchKNNTraced(ctx, "trips", q, 3, nil); err != context.Canceled {
		t.Fatalf("cancelled kNN err = %v, want context.Canceled", err)
	}
	if math.IsInf(hits[0].Distance, 1) {
		t.Fatal("nearest neighbor distance is +Inf on a dense dataset")
	}
}

// TestNetKNNChaos: killing one of three workers mid-workload must not
// change kNN results — every partition fails over to its second replica,
// and the merged top-k stays exactly the brute-force answer.
func TestNetKNNChaos(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(300, 114))
	workers, _, c := chaosCluster(t, 3, chaosConfig())
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	m := measure.DTW{}
	qs := gen.Queries(d, 6, 115)
	const k = 9
	for i, q := range qs {
		if i == len(qs)/2 {
			// Crash a worker mid-workload.
			workers[1].Close()
		}
		hits, err := c.SearchKNN("trips", q, k)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		checkKNN(t, fmt.Sprintf("query %d after a worker kill", i), hits, d.Trajs, m, q, k)
	}
}

// knnRoundSizes returns, per knn-round span of a traced kNN in round order,
// how many partition-knn RPC spans the round enclosed.
func knnRoundSizes(tr *obs.Trace) []int {
	var rounds, parts []obs.Span
	for _, s := range tr.Spans() {
		switch s.Name {
		case "knn-round":
			rounds = append(rounds, s)
		case "partition-knn":
			parts = append(parts, s)
		}
	}
	sort.Slice(rounds, func(a, b int) bool { return rounds[a].Start < rounds[b].Start })
	sizes := make([]int, len(rounds))
	for _, p := range parts {
		for i, r := range rounds {
			if p.Start >= r.Start && p.Start <= r.Start+r.Duration {
				sizes[i]++
				break
			}
		}
	}
	return sizes
}

// tracedKNN runs one traced kNN and returns its hits, report and per-round
// RPC counts.
func tracedKNN(t *testing.T, c *Coordinator, name string, q *traj.T, k int) ([]SearchHit, *PartialReport, []int) {
	t.Helper()
	qs := &QueryStats{Trace: obs.NewTrace("knn")}
	hits, rep, err := c.SearchKNNTraced(context.Background(), name, q, k, qs)
	if err != nil {
		t.Fatalf("k=%d: %v", k, err)
	}
	return hits, rep, knnRoundSizes(qs.Trace)
}

// knnPlan is the coordinator's own visit order for q, for tests that need
// to know which partition a query pilots.
func knnPlan(t *testing.T, c *Coordinator, name string, q *traj.T) (*core.LayoutView, []core.KNNVisit) {
	t.Helper()
	dd, err := c.dataset(name)
	if err != nil {
		t.Fatal(err)
	}
	v := dd.view()
	return v, core.KNNOrder(c.m, v.Bounds, q.Points)
}

// TestNetKNNPilotRounds pins the round protocol on a healthy cluster against
// brute force: a small k pilots the one nearest partition and finishes in at
// most one fan-out round; a k above the nearest partition's live count widens
// the pilot to the shortest prefix covering k; k ≥ visible pilots everything
// in a single round.
func TestNetKNNPilotRounds(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(400, 120))
	c, stop := startCluster(t, 3, testConfig())
	defer stop()
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	m := measure.DTW{}
	for qi, q := range gen.Queries(d, 4, 121) {
		v, order := knnPlan(t, c, "trips", q)
		home := v.Live[order[0].PID]
		for _, tc := range []struct {
			k     int
			pilot int // partitions in the first round
		}{
			{k: 5, pilot: 1},
			{k: home, pilot: 1},
			{k: home + 1, pilot: 2},
			{k: d.Len(), pilot: len(order)},
			{k: d.Len() + 9, pilot: len(order)},
		} {
			hits, rep, rounds := tracedKNN(t, c, "trips", q, tc.k)
			if rep.Partial() {
				t.Fatalf("query %d k=%d: unexpected partial report %+v", qi, tc.k, rep.Skipped)
			}
			checkKNN(t, fmt.Sprintf("query %d", qi), hits, d.Trajs, m, q, tc.k)
			if tc.k == home+1 {
				// The second-nearest partition may be empty; the prefix then
				// runs on to the first that covers the missing answer.
				for tc.pilot < len(order) && v.Live[order[tc.pilot-1].PID] == 0 {
					tc.pilot++
				}
			}
			if len(rounds) < 1 || len(rounds) > 2 || rounds[0] != tc.pilot {
				t.Fatalf("query %d k=%d: rounds %v, want a pilot of %d partitions then at most one fan-out",
					qi, tc.k, rounds, tc.pilot)
			}
		}
	}
}

// TestNetKNNDeadPilot: the nearest partition has lost its only replica. In
// strict mode the query fails naming it; under AllowPartial the next
// partition in bound order becomes the pilot, the answer is the exact top-k
// of the partitions that answered, and the report names the skip.
func TestNetKNNDeadPilot(t *testing.T) {
	cfg := testConfig()
	cfg.Replicas = 1
	workers, _, c := chaosCluster(t, 2, cfg)
	d := gen.Generate(gen.BeijingLike(200, 122))
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	dd, err := c.dataset("trips")
	if err != nil {
		t.Fatal(err)
	}
	// A query whose pilot lives on worker 1 and whose runner-up does not.
	var q *traj.T
	var pilot int
	for _, cand := range d.Trajs {
		_, order := knnPlan(t, c, "trips", cand)
		dd.mu.Lock()
		first, second := dd.replicas[order[0].PID][0], dd.replicas[order[1].PID][0]
		dd.mu.Unlock()
		if first == 1 && second == 0 {
			q, pilot = cand, order[0].PID
			break
		}
	}
	if q == nil {
		t.Fatal("test setup: no query pilots a partition of worker 1")
	}
	workers[1].Close()
	const k = 4
	if _, err := c.SearchKNN("trips", q, k); err == nil {
		t.Fatal("strict kNN over a lost pilot partition returned no error")
	}

	c.cfg.AllowPartial = true
	// The members that can still answer: a partial search wide enough to
	// match everything returns exactly the surviving partitions' members.
	all, srep, err := c.SearchTraced(context.Background(), "trips", q, 1e6, nil)
	if err != nil {
		t.Fatal(err)
	}
	alive := map[int]bool{}
	for _, h := range all {
		alive[h.ID] = true
	}
	survivors := &traj.Dataset{Name: "survivors"}
	for _, tr := range d.Trajs {
		if alive[tr.ID] {
			survivors.Trajs = append(survivors.Trajs, tr)
		}
	}
	if len(survivors.Trajs) == 0 || len(survivors.Trajs) == d.Len() {
		t.Fatalf("test setup: %d of %d members survive", len(survivors.Trajs), d.Len())
	}
	hits, rep, rounds := tracedKNN(t, c, "trips", q, k)
	checkKNN(t, "partial, over the surviving partitions", hits, survivors.Trajs, measure.DTW{}, q, k)
	named := false
	for _, s := range rep.Skipped {
		named = named || (s.Dataset == "trips" && s.Partition == pilot && s.Err != "")
	}
	if !named {
		t.Fatalf("report %+v does not name the dead pilot partition %d", rep.Skipped, pilot)
	}
	if len(rep.Skipped) > len(srep.Skipped) {
		t.Fatalf("kNN skipped %d partitions, the full search only %d", len(rep.Skipped), len(srep.Skipped))
	}
	if len(rounds) < 2 || rounds[0] != 1 || rounds[1] != 1 {
		t.Fatalf("rounds %v, want the dead pilot alone, then the next partition alone as the new pilot", rounds)
	}
}

// TestNetKNNPilotOverlay: the pilot partition carries tombstones and an
// unmerged delta (MergeBytes is never reached). The pilot's τ then comes
// from a base scan with masked members plus a delta scan, and must still be
// an exact k-th distance for the fan-out to prune against.
func TestNetKNNPilotOverlay(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(300, 123))
	workers, _, _, c := ingestCluster(t, 3, chaosConfig(), 1<<30, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	model := map[int]*traj.T{}
	for _, tr := range d.Trajs {
		model[tr.ID] = tr
	}
	m := measure.DTW{}
	q := gen.Queries(d, 1, 124)[0]
	_, order := knnPlan(t, c, "trips", q)
	pilot := order[0].PID
	dd, err := c.dataset("trips")
	if err != nil {
		t.Fatal(err)
	}
	inPilot := func(id int) bool {
		dd.mu.Lock()
		defer dd.mu.Unlock()
		pid, ok := dd.lay.Locate(id)
		return ok && pid == pilot
	}
	// Tombstones: delete every other one of q's nearest neighbours that
	// live in the pilot partition. Delta: upsert two of the rest with a
	// shifted copy, and insert q's own points under fresh ids.
	var near []SearchHit
	for _, h := range oracle.KNN(d.Trajs, m, q, d.Len()) {
		if inPilot(h.ID) {
			near = append(near, SearchHit(h))
		}
	}
	if len(near) < 8 {
		t.Fatalf("test setup: pilot partition %d holds only %d members", pilot, len(near))
	}
	for i, h := range near[:8] {
		switch {
		case i%2 == 0:
			if ok, err := c.Delete("trips", h.ID); err != nil || !ok {
				t.Fatalf("delete %d: ok=%v err=%v", h.ID, ok, err)
			}
			delete(model, h.ID)
		case i < 4:
			pts := append([]geom.Point(nil), model[h.ID].Points...)
			for j := range pts {
				pts[j].X += 1e-4
			}
			nt := &traj.T{ID: h.ID, Points: pts}
			if err := c.Ingest("trips", nt); err != nil {
				t.Fatal(err)
			}
			model[h.ID] = nt
		}
	}
	for i := 0; i < 3; i++ {
		nt := &traj.T{ID: 700000 + i, Points: q.Points}
		if err := c.Ingest("trips", nt); err != nil {
			t.Fatal(err)
		}
		model[nt.ID] = nt
		if !inPilot(nt.ID) {
			t.Fatalf("test setup: clone %d of the query was not routed to its pilot partition", nt.ID)
		}
	}
	var merges int64
	for _, w := range workers {
		merges += w.merges.Load()
	}
	if merges != 0 {
		t.Fatalf("test setup: %d merges folded the overlay away", merges)
	}
	od := visibleOf(model)
	for _, k := range []int{1, 3, 4, 10, 40, len(model) + 2} {
		hits, rep, rounds := tracedKNN(t, c, "trips", q, k)
		if rep.Partial() {
			t.Fatalf("k=%d: unexpected partial report %+v", k, rep.Skipped)
		}
		checkKNN(t, "over the overlaid pilot", hits, od, m, q, k)
		if len(rounds) > 2 {
			t.Fatalf("k=%d: %d rounds, want a pilot and at most one fan-out", k, len(rounds))
		}
	}
	// Outliers over the same overlay: overlay members get the box bound
	// from KNNScanLive, masked base members must stay hidden from it.
	for fi, fq := range gen.OutlierQueries(d, 127) {
		for _, k := range []int{1, 10, len(model) + 2} {
			hits, rep, _ := tracedKNN(t, c, "trips", fq, k)
			if rep.Partial() {
				t.Fatalf("far query %d k=%d: unexpected partial report %+v", fi, k, rep.Skipped)
			}
			checkKNN(t, fmt.Sprintf("far query %d", fi), hits, od, m, fq, k)
		}
	}
}

// cutoverCtx runs hook once, on the first Err call after the query's trace
// holds a span named span — a kNN's knn-plan, a join's global-prune: the
// coordinator checks its context at the top of every kNN round and before
// every replica attempt, so that call sits between a plan pinned to one
// layout and the first RPC against it — the window in which a cutover makes
// the plan stale.
type cutoverCtx struct {
	context.Context
	tr   *obs.Trace
	span string
	once sync.Once
	hook func()
}

func (c *cutoverCtx) Err() error {
	for _, s := range c.tr.Spans() {
		if s.Name == c.span {
			c.once.Do(c.hook)
			break
		}
	}
	return c.Context.Err()
}

// TestNetKNNCutoverReplan: the pilot partition is split away after the
// query pinned its plan and before the pilot RPC. The probe finds the
// partition retired — staleness, not ill health — so the query re-plans
// against the new layout and still returns the exact answer, with nothing
// skipped, in strict mode.
func TestNetKNNCutoverReplan(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(300, 125))
	_, _, _, c := ingestCluster(t, 3, chaosConfig(), 1<<30, 0)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	m := measure.DTW{}
	for qi, q := range gen.Queries(d, 3, 126) {
		_, order := knnPlan(t, c, "trips", q)
		pilot := order[0].PID
		qs := &QueryStats{Trace: obs.NewTrace("knn")}
		var splitErr error
		ctx := &cutoverCtx{Context: context.Background(), tr: qs.Trace, span: "knn-plan", hook: func() {
			_, splitErr = c.SplitPartition("trips", pilot, 2)
		}}
		const k = 6
		hits, rep, err := c.SearchKNNTraced(ctx, "trips", q, k, qs)
		if splitErr != nil {
			t.Fatalf("query %d: split of pilot partition %d: %v", qi, pilot, splitErr)
		}
		if err != nil {
			t.Fatalf("query %d: kNN across a cutover of its pilot partition: %v", qi, err)
		}
		if rep.Partial() {
			t.Fatalf("query %d: report %+v, want nothing skipped after the re-plan", qi, rep.Skipped)
		}
		checkKNN(t, fmt.Sprintf("query %d across a cutover", qi), hits, d.Trajs, m, q, k)
		plans := 0
		for _, s := range qs.Trace.Spans() {
			if s.Name == "knn-plan" {
				plans++
			}
		}
		if plans != 2 {
			t.Fatalf("query %d: %d knn-plan spans, want 2 (the stale plan and the re-plan)", qi, plans)
		}
	}
}
