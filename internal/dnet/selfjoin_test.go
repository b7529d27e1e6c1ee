package dnet

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"dita/internal/cluster"
	"dita/internal/core"
	"dita/internal/gen"
	"dita/internal/measure"
	"dita/internal/obs"
	"dita/internal/oracle"
	"dita/internal/traj"
)

// checkNetSelfJoin holds the cluster's self-join of a dataset to the
// oracle's over the logical model, pair for pair and bit for bit. It is the
// dnet twin of core's checkVisibleJoins and rides every round of the ingest
// and rebalance differentials, so a member visible in two partitions after
// a cutover or a replay shows up here as a pair the model does not have.
func checkNetSelfJoin(t *testing.T, c *Coordinator, name string, model map[int]*traj.T, tau float64, m measure.Measure) {
	t.Helper()
	pairs, err := c.Join(name, name, tau)
	if err != nil {
		t.Fatalf("self-join %q: %v", name, err)
	}
	if err := oracle.DiffJoin(pairsOf(pairs), oracle.SelfJoin(visibleOf(model), m, tau)); err != nil {
		t.Fatalf("self-join %q: %v", name, err)
	}
}

// checkMirrored fails unless every (a,b) has its (b,a), at the same bits.
func checkMirrored(t *testing.T, pairs []WirePair, label string) {
	t.Helper()
	got := make(map[[2]int]float64, len(pairs))
	for _, p := range pairs {
		got[[2]int{p.TID, p.QID}] = p.Distance
	}
	for k, d := range got {
		if r, ok := got[[2]int{k[1], k[0]}]; !ok || math.Float64bits(r) != math.Float64bits(d) {
			t.Fatalf("%s: (%d,%d) at %v but its mirror at %v (present %v)", label, k[0], k[1], d, r, ok)
		}
	}
}

// One answer from four plans: the engine's self-join, its join with a
// second engine over the same data, the cluster's self-join, and the
// cluster's join of the dataset with a copy of it dispatched under another
// name — the last two over R = 2, so the diagonal edges and the shipments
// land on either replica.
func TestSelfJoinFourWays(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(300, 131))
	const tau = 0.02
	opts := core.DefaultOptions()
	opts.NG = 3
	opts.Cluster = cluster.New(cluster.DefaultConfig(2))
	e, err := core.NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := core.NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, _, c := chaosCluster(t, 3, chaosConfig())
	for _, name := range []string{"x", "copy"} {
		if err := c.Dispatch(name, d); err != nil {
			t.Fatal(err)
		}
	}
	wire := func(ps []core.Pair) []WirePair {
		out := make([]WirePair, len(ps))
		for i, p := range ps {
			out[i] = WirePair{TID: p.T.ID, QID: p.Q.ID, Distance: p.Distance}
		}
		return out
	}
	netJoin := func(left, right string) []WirePair {
		ps, err := c.Join(left, right, tau)
		if err != nil {
			t.Fatalf("join %s⋈%s: %v", left, right, err)
		}
		return ps
	}
	want := oracle.SelfJoin(d.Trajs, measure.DTW{}, tau)
	if len(want) <= d.Len() {
		t.Fatalf("only %d pairs over %d members: nothing to mirror", len(want), d.Len())
	}
	// Each orientation measured on its own: the mirrored bits are
	// Distance's in that orientation too.
	if err := oracle.DiffJoin(want, oracle.Join(d.Trajs, d.Trajs, measure.DTW{}, tau)); err != nil {
		t.Fatalf("self-join against the two-sided join: %v", err)
	}
	for label, got := range map[string][]WirePair{
		"e.Join(e)":       wire(e.Join(e, tau, core.DefaultJoinOptions(), nil)),
		"e.Join(clone)":   wire(e.Join(clone, tau, core.DefaultJoinOptions(), nil)),
		"c.Join(x, x)":    netJoin("x", "x"),
		"c.Join(x, x) #2": netJoin("x", "x"), // the replica rotation has moved on
		"c.Join(x, copy)": netJoin("x", "copy"),
		"c.Join(copy, x)": netJoin("copy", "x"),
	} {
		if err := oracle.DiffJoin(pairsOf(got), want); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
}

// The plan of a self-join, seen from outside: each unordered partition pair
// is one edge, the funnel counts unordered pairs, a fraction of the
// two-sided join's bytes is shipped — none at all when the dataset is one
// partition, which joins with itself where it is — and however many joins
// run, a worker keeps one shipment connection per peer.
func TestSelfJoinPlanShipsNoDiagonal(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(240, 137))
	workers, _, c := chaosCluster(t, 3, chaosConfig())
	for _, name := range []string{"x", "copy"} {
		if err := c.Dispatch(name, d); err != nil {
			t.Fatal(err)
		}
	}
	const tau = 0.02
	// traced runs one join and returns its stats, its pairs, and the bytes
	// and Join RPCs it cost the workers.
	traced := func(c *Coordinator, workers []*Worker, left, right string) (qs *QueryStats, pairs []WirePair, bytes, calls int64) {
		t.Helper()
		count := func() (b, n int64) {
			for _, w := range workers {
				b, n = b+w.bytesIn.Load(), n+w.joinCalls.Load()
			}
			return b, n
		}
		b0, n0 := count()
		qs = &QueryStats{Trace: obs.NewTrace("join")}
		pairs, _, err := c.JoinTraced(context.Background(), left, right, tau, qs)
		if err != nil {
			t.Fatal(err)
		}
		b1, n1 := count()
		return qs, pairs, b1 - b0, n1 - n0
	}
	self, pairs, shipped, _ := traced(c, workers, "x", "x")
	two, _, twoSided, _ := traced(c, workers, "x", "copy")
	parts := int64(len(livePartIDs(c, "x")))
	if want := (two.Funnel.Relevant + parts) / 2; self.Funnel.Relevant != want {
		t.Errorf("self-join planned %d edges; the two-sided join's %d make %d unordered pairs", self.Funnel.Relevant, two.Funnel.Relevant, want)
	}
	if got := 2*self.Funnel.Matched - int64(d.Len()); got != int64(len(pairs)) {
		t.Errorf("matched %d over %d members accounts for %d pairs, join returned %d", self.Funnel.Matched, d.Len(), got, len(pairs))
	}
	// The two-sided join ships every partition to its twin and along both
	// orientations of every other partition pair.
	if shipped == 0 || shipped >= twoSided/2 {
		t.Errorf("self-join shipped %d bytes, the two-sided join %d", shipped, twoSided)
	}
	clocked := false
	for _, s := range self.Trace.Spans() {
		if s.Name != "edge-join" {
			continue
		}
		if s.Probe+s.Verify > s.Duration {
			t.Errorf("edge-join span of partition %d: probe %v + verify %v of %v", s.Partition, s.Probe, s.Verify, s.Duration)
		}
		clocked = clocked || (s.Probe > 0 && s.Verify > 0)
	}
	if !clocked {
		t.Error("no edge-join span carries the worker's probe and verify time")
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Join("x", "x", tau); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range workers {
		w.peerMu.Lock()
		n := len(w.peers)
		w.peerMu.Unlock()
		w.connMu.Lock()
		conns := len(w.conns)
		w.connMu.Unlock()
		// A replica may ship to itself (both partitions of an edge live on
		// it), so up to one client — and one accepted connection — per
		// worker, besides the coordinator's.
		if n > len(workers) || conns > 1+len(workers) {
			t.Errorf("worker %d: %d shipment clients, %d connections, after 6 joins on %d workers", i, n, conns, len(workers))
		}
	}

	// One partition: the join is a single diagonal edge.
	cfg := chaosConfig()
	cfg.NG = 1
	ws1, _, c1 := chaosCluster(t, 2, cfg)
	if err := c1.Dispatch("x", d); err != nil {
		t.Fatal(err)
	}
	one, pairs1, bytes1, calls1 := traced(c1, ws1, "x", "x")
	if one.Funnel.Relevant != 1 || bytes1 != 0 || calls1 != 1 || len(pairs1) != len(pairs) {
		t.Errorf("one-partition self-join: %d edges, %d bytes shipped, %d Join calls, %d pairs (want 1, 0, 1, %d)",
			one.Funnel.Relevant, bytes1, calls1, len(pairs1), len(pairs))
	}
}

// A partition with no surviving replica takes every edge it is part of out
// of a self-join, and an edge's pairs have their T in either of its two
// partitions: the report names both, and what is returned is the exact,
// mirror-closed join of the partitions no lost edge touches — with the
// worker lost before the join and with it lost while the join runs.
func TestChaosSelfJoinPartialNamesBothPartitions(t *testing.T) {
	cfg := testConfig()
	cfg.Replicas = 1
	cfg.AllowPartial = true
	workers, _, c := chaosCluster(t, 3, cfg)
	d := gen.Generate(gen.BeijingLike(150, 139))
	if err := c.Dispatch("x", d); err != nil {
		t.Fatal(err)
	}
	const tau = 0.05
	full, err := c.Join("x", "x", tau)
	if err != nil {
		t.Fatal(err)
	}
	checkJoin(t, full, oracle.SelfJoin(d.Trajs, measure.DTW{}, tau))
	dd, err := c.dataset("x")
	if err != nil {
		t.Fatal(err)
	}
	loc := dd.lay.Locations()
	check := func(label string, pairs []WirePair, rep *PartialReport) {
		t.Helper()
		named := map[int]bool{}
		for _, s := range rep.Skipped {
			if s.Dataset != "x" || s.Err == "" {
				t.Fatalf("%s: malformed skip entry %+v", label, s)
			}
			named[s.Partition] = true
		}
		checkMirrored(t, pairs, label)
		kept := map[[2]int]bool{}
		for _, p := range pairs {
			kept[[2]int{p.TID, p.QID}] = true
		}
		for _, p := range full {
			if !kept[[2]int{p.TID, p.QID}] && !(named[loc[p.TID]] && named[loc[p.QID]]) {
				t.Fatalf("%s: pair (%d,%d) of partitions (%d,%d) is missing, but the report names only %v",
					label, p.TID, p.QID, loc[p.TID], loc[p.QID], named)
			}
		}
	}

	// Lost mid-join: whatever the timing, nothing is half-reported.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(200 * time.Microsecond)
		workers[1].Close()
	}()
	pairs, rep, err := c.JoinTraced(context.Background(), "x", "x", tau, nil)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	check("killed mid-join", pairs, rep)

	// Lost before the join: exact arithmetic.
	dead := map[int]bool{}
	for pid, owners := range dd.replicas {
		if len(owners) > 0 && owners[0] == 1 {
			dead[pid] = true
		}
	}
	if len(dead) == 0 {
		t.Fatal("test setup: worker 1 owns no partitions")
	}
	pairs, rep, err = c.JoinTraced(context.Background(), "x", "x", tau, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial() {
		t.Fatal("join over lost partitions reported complete")
	}
	check("killed before join", pairs, rep)
	named := map[int]bool{}
	for _, s := range rep.Skipped {
		named[s.Partition] = true
	}
	for pid := range dead {
		if !named[pid] {
			t.Errorf("report does not name lost partition %d", pid)
		}
	}
	// A pair is returned exactly when neither member's partition is lost
	// and the edge between the two partitions was not lost either — and no
	// edge between two live partitions is.
	want := 0
	for _, p := range full {
		if !dead[loc[p.TID]] && !dead[loc[p.QID]] {
			want++
		}
	}
	if len(pairs) != want {
		t.Errorf("partial self-join returned %d pairs, want the %d between live partitions", len(pairs), want)
	}
}

// Dispatch refuses a dataset in which two members share an id: the routing
// table, Fetch and the mirrored half of a self-join all know a member by
// its id alone. (The engine pairs such members by slot instead; see core's
// TestSelfJoinDuplicateIDs.)
func TestDispatchRejectsDuplicateIDs(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(40, 149))
	twin := d.Trajs[7].Clone()
	d.Trajs = append(d.Trajs, twin)
	workers, _, c := chaosCluster(t, 2, testConfig())
	if err := c.Dispatch("dup", d); err == nil {
		t.Fatal("dispatch of a dataset with a repeated id succeeded")
	}
	if _, err := c.dataset("dup"); err == nil {
		t.Error("rejected dataset is registered")
	}
	for i, w := range workers {
		w.mu.RLock()
		n := len(w.parts)
		w.mu.RUnlock()
		if n != 0 {
			t.Errorf("worker %d holds %d partitions of the rejected dataset", i, n)
		}
	}
}
