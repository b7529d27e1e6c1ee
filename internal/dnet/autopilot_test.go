package dnet

import (
	"context"
	"math"
	"testing"
	"time"

	"dita/internal/core"
	"dita/internal/gen"
	"dita/internal/geom"
	"dita/internal/obs"
	"dita/internal/traj"
)

// skewedQueries aims n queries at the dataset's first member's geometry
// with a per-query jitter — the read-hotspot workload the autopilot's
// cost signal exists to detect. Every query lands on the partition
// holding that geometry, driving its verify cost far above its siblings.
func skewedQueries(d *traj.Dataset, n int) []*traj.T {
	hot := d.Trajs[0].Points
	out := make([]*traj.T, n)
	for i := range out {
		jit := make([]geom.Point, len(hot))
		off := float64(i) * 1e-7
		for pi, p := range hot {
			jit[pi] = geom.Point{X: p.X + off, Y: p.Y + off}
		}
		out[i] = &traj.T{ID: 900000 + i, Points: jit}
	}
	return out
}

// searchResults runs the workload and returns each query's hits sorted
// by id — the exact-comparison form for the autopilot-on/off contract.
func searchResults(t *testing.T, c *Coordinator, qs []*traj.T, tau float64) [][]SearchHit {
	t.Helper()
	out := make([][]SearchHit, len(qs))
	for i, q := range qs {
		hits, err := c.Search("trips", q, tau)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		for a := 1; a < len(hits); a++ {
			for b := a; b > 0 && hits[b].ID < hits[b-1].ID; b-- {
				hits[b], hits[b-1] = hits[b-1], hits[b]
			}
		}
		out[i] = hits
	}
	return out
}

// TestReadSpreadAcrossReplicas: with every partition on every worker,
// the rotated replica order must spread repeated reads across the whole
// fleet instead of pinning them to the stable-sort head — the built-in
// hotspot the rotation exists to remove. Each partition rotates on its own
// reads, so every owner of a probed partition serves it within R
// consecutive probes of it, whatever the probes of other partitions did.
func TestReadSpreadAcrossReplicas(t *testing.T) {
	cfg := testConfig()
	cfg.Replicas = 3
	_, _, c := chaosCluster(t, 3, cfg)
	d := gen.Generate(gen.BeijingLike(300, 501))
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	qs := gen.Queries(d, 8, 502)
	served := map[int][]string{} // pid → the worker of each of its probes, in order
	for round := 0; round < 10; round++ {
		for _, q := range qs {
			st := &QueryStats{Trace: obs.NewTrace("search")}
			if _, _, err := c.SearchTraced(context.Background(), "trips", q, 0.01, st); err != nil {
				t.Fatal(err)
			}
			for _, s := range st.Trace.Spans() {
				if s.Name == "partition-search" {
					served[s.Partition] = append(served[s.Partition], s.Worker)
				}
			}
		}
	}
	for pid, ws := range served {
		for i := 0; i+cfg.Replicas <= len(ws); i++ {
			window := ws[i : i+cfg.Replicas]
			owners := map[string]bool{}
			for _, w := range window {
				owners[w] = true
			}
			if len(owners) != cfg.Replicas {
				t.Fatalf("partition %d: probes %d..%d went to %v, not to each of its %d owners", pid, i, i+cfg.Replicas-1, window, cfg.Replicas)
			}
		}
	}
	stats, err := c.WorkerStats()
	if err != nil {
		t.Fatal(err)
	}
	minCalls, maxCalls := int64(math.MaxInt64), int64(0)
	for i, s := range stats {
		if s.SearchCalls == 0 {
			t.Fatalf("worker %d served no searches; reads are pinned", i)
		}
		if s.SearchCalls < minCalls {
			minCalls = s.SearchCalls
		}
		if s.SearchCalls > maxCalls {
			maxCalls = s.SearchCalls
		}
	}
	// Strict per-probe rotation over equally-healthy owners is near
	// uniform; 2x leaves room for partition-count remainders.
	if maxCalls > 2*minCalls {
		t.Fatalf("read spread too skewed: per-worker search calls range [%d, %d]", minCalls, maxCalls)
	}
}

// TestReadSpreadFailoverOrdering: rotation only permutes runs of EQUAL
// health — a suspect replica must still sort after every healthy one at
// any tick, preserving live-first failover ordering.
func TestReadSpreadFailoverOrdering(t *testing.T) {
	h := newHealthTracker(3, HealthPolicy{SuspectAfter: 1, DeadAfter: 5})

	// All healthy: every worker leads at some tick.
	leads := map[int]bool{}
	for tick := uint64(0); tick < 6; tick++ {
		ord := h.orderRotated([]int{0, 1, 2}, tick)
		leads[ord[0]] = true
	}
	if len(leads) != 3 {
		t.Fatalf("healthy rotation led with %v, want all of {0,1,2}", leads)
	}

	// Worker 0 suspect: never first, always last, healthy pair rotates.
	h.failure(0, false)
	pairLeads := map[int]bool{}
	for tick := uint64(0); tick < 6; tick++ {
		ord := h.orderRotated([]int{0, 1, 2}, tick)
		if ord[len(ord)-1] != 0 {
			t.Fatalf("tick %d: suspect worker 0 not last: %v", tick, ord)
		}
		pairLeads[ord[0]] = true
	}
	if !pairLeads[1] || !pairLeads[2] {
		t.Fatalf("healthy pair did not rotate: leads %v", pairLeads)
	}

	// Revived: back into the rotation.
	h.success(0)
	leads = map[int]bool{}
	for tick := uint64(0); tick < 6; tick++ {
		leads[h.orderRotated([]int{0, 1, 2}, tick)[0]] = true
	}
	if len(leads) != 3 {
		t.Fatalf("revived rotation led with %v, want all of {0,1,2}", leads)
	}
}

// TestAutopilotSkewedReadDifferential is the acceptance contract: a
// skewed read workload against a live 3-worker cluster with the
// autopilot enabled — and no operator Rebalance/PromoteReplica calls —
// must trigger at least one automatic cutover or replica promotion,
// spread reads across at least two workers, and keep query results
// byte-identical to an autopilot-disabled run over the same data.
func TestAutopilotSkewedReadDifferential(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(240, 511))
	qs := gen.Queries(d, 6, 512)
	hotQs := skewedQueries(d, 12)
	const tau = 0.01

	// Control: same dataset, no autopilot.
	ctrlCfg := testConfig()
	ctrlCfg.Replicas = 2
	_, _, ctrl := chaosCluster(t, 3, ctrlCfg)
	if err := ctrl.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	want := searchResults(t, ctrl, qs, tau)
	wantHot := searchResults(t, ctrl, hotQs, tau)

	cfg := testConfig()
	cfg.Replicas = 2
	reg := obs.New()
	cfg.Obs = reg
	cfg.Autopilot = AutopilotConfig{
		Interval: 15 * time.Millisecond,
		Cooldown: 30 * time.Millisecond,
		// A generous SkewBound and near-zero MergeFraction keep the byte
		// paths quiet so the action below is driven by the read-cost
		// signal the skewed workload writes, not by layout geometry.
		Policy: core.RebalancePolicy{SkewBound: 50, CostBound: 2, MergeFraction: 0.001},
		Logf:   t.Logf,
	}
	_, _, c := chaosCluster(t, 3, cfg)
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}

	actions := func() int64 {
		return reg.Counter("coord_autopilot_cutovers_total").Value() +
			reg.Counter("coord_autopilot_promotions_total").Value()
	}
	deadline := time.Now().Add(20 * time.Second)
	for actions() == 0 && time.Now().Before(deadline) {
		for _, q := range hotQs {
			if _, err := c.Search("trips", q, tau); err != nil {
				t.Fatal(err)
			}
		}
	}
	if actions() == 0 {
		t.Fatalf("autopilot took no automatic action under a skewed read workload (ticks=%d)",
			reg.Counter("coord_autopilot_ticks_total").Value())
	}

	// Results must be byte-identical to the autopilot-disabled run.
	for label, pair := range map[string][2][][]SearchHit{
		"uniform": {want, searchResults(t, c, qs, tau)},
		"skewed":  {wantHot, searchResults(t, c, hotQs, tau)},
	} {
		for i := range pair[0] {
			w, g := pair[0][i], pair[1][i]
			if len(w) != len(g) {
				t.Fatalf("%s query %d: %d hits with autopilot, %d without", label, i, len(g), len(w))
			}
			for j := range w {
				if w[j].ID != g[j].ID ||
					math.Float64bits(w[j].Distance) != math.Float64bits(g[j].Distance) {
					t.Fatalf("%s query %d hit %d: (%d,%x) with autopilot, want (%d,%x)",
						label, i, j, g[j].ID, math.Float64bits(g[j].Distance),
						w[j].ID, math.Float64bits(w[j].Distance))
				}
			}
		}
	}

	// The skewed workload's reads must not pin to one worker.
	stats, err := c.WorkerStats()
	if err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, s := range stats {
		if s.SearchCalls > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("reads hit only %d worker(s), want >= 2", busy)
	}

	// The autopilot's cost gauges are published for the live layout.
	found := false
	for name := range reg.Snapshot().FloatGauges {
		if len(name) > len("coord_partition_cost_us_p") &&
			name[:len("coord_partition_cost_us_p")] == "coord_partition_cost_us_p" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no coord_partition_cost_us_p<pid> gauges published")
	}
}
