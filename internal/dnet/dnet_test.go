package dnet

import (
	"fmt"
	"testing"
	"time"

	"dita/internal/gen"
	"dita/internal/measure"
	"dita/internal/oracle"
	"dita/internal/traj"
)

// startCluster spins up n workers on loopback and a connected coordinator.
func startCluster(t *testing.T, n int, cfg Config) (*Coordinator, func()) {
	t.Helper()
	var workers []*Worker
	var addrs []string
	for i := 0; i < n; i++ {
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
	return c, func() {
		c.Close()
		for _, w := range workers {
			w.Close()
		}
	}
}

func testConfig() Config {
	cfg := DefaultNetConfig()
	cfg.NG = 3
	cfg.Trie.MinNode = 2
	// Fast retries so failure-path tests don't sit in backoff sleeps.
	cfg.Retry = RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		CallTimeout: 10 * time.Second,
		Seed:        1,
	}
	return cfg
}

// Network-mode search must be exact: the same results brute force gives,
// over real TCP with gob serialization.
func TestNetSearchMatchesBruteForce(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(400, 80))
	c, stop := startCluster(t, 3, testConfig())
	defer stop()
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	for _, q := range gen.Queries(d, 8, 81) {
		tau := 0.01
		hits, err := c.Search("trips", q, tau)
		if err != nil {
			t.Fatal(err)
		}
		checkSearch(t, hits, d.Trajs, measure.DTW{}, q, tau)
	}
}

// The worker-to-worker join shuffle must be exact too.
func TestNetJoinMatchesBruteForce(t *testing.T) {
	a := gen.Generate(gen.BeijingLike(120, 82))
	b := gen.Generate(gen.BeijingLike(100, 82)) // same seed: shared routes
	for _, tr := range b.Trajs {
		tr.ID += 100000
	}
	c, stop := startCluster(t, 3, testConfig())
	defer stop()
	if err := c.Dispatch("T", a); err != nil {
		t.Fatal(err)
	}
	if err := c.Dispatch("Q", b); err != nil {
		t.Fatal(err)
	}
	tau := 0.01
	pairs, err := c.Join("T", "Q", tau)
	if err != nil {
		t.Fatal(err)
	}
	checkJoin(t, pairs, oracle.Join(a.Trajs, b.Trajs, measure.DTW{}, tau))
}

// Data must actually be spread across workers, and search work must reach
// more than one of them.
func TestNetDistribution(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(600, 83))
	c, stop := startCluster(t, 3, testConfig())
	defer stop()
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	stats, err := c.WorkerStats()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	loaded := 0
	for _, s := range stats {
		total += s.Trajs
		if s.Trajs > 0 {
			loaded++
		}
		if s.Trajs > 0 && s.IndexBytes == 0 {
			t.Error("worker holds data but no index")
		}
	}
	// Every trajectory is held Replicas (default 2) times.
	if total != 2*d.Len() {
		t.Fatalf("workers hold %d trajectory copies, want %d (2 replicas)", total, 2*d.Len())
	}
	if loaded < 2 {
		t.Fatalf("only %d workers hold data", loaded)
	}
	for _, q := range gen.Queries(d, 30, 84) {
		if _, err := c.Search("trips", q, 0.02); err != nil {
			t.Fatal(err)
		}
	}
	stats, _ = c.WorkerStats()
	searched := 0
	for _, s := range stats {
		if s.SearchCalls > 0 {
			searched++
		}
	}
	if searched < 2 {
		t.Errorf("search load reached only %d workers", searched)
	}
}

// Fetch returns the full trajectories for hits.
func TestNetFetch(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(100, 85))
	c, stop := startCluster(t, 2, testConfig())
	defer stop()
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	q := d.Trajs[0]
	hits, err := c.Search("trips", q, 0.001)
	if err != nil || len(hits) == 0 {
		t.Fatalf("search: %v, %d hits", err, len(hits))
	}
	// Locate the partition holding the query id and fetch it back.
	dd, err := c.dataset("trips")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for pid := range dd.parts {
		var reply FetchReply
		err := c.clients[c.replicaOrder(dd, pid)[0]].Call("Worker.Fetch",
			&FetchArgs{Dataset: "trips", Partition: pid, IDs: []int{q.ID}}, &reply)
		if err != nil {
			t.Fatal(err)
		}
		for _, wt := range reply.Trajs {
			if wt.ID == q.ID {
				found = true
				if len(wt.Points) != q.Len() {
					t.Fatalf("fetched %d points, want %d", len(wt.Points), q.Len())
				}
			}
		}
	}
	if !found {
		t.Fatal("query trajectory not fetchable from any partition")
	}
}

// Error paths: unknown dataset, unknown partition, empty dispatch, bad
// measure, no workers.
func TestNetErrors(t *testing.T) {
	c, stop := startCluster(t, 2, testConfig())
	defer stop()
	if _, err := c.Search("nope", &traj.T{Points: nil}, 1); err != nil {
		t.Errorf("empty query should short-circuit, got %v", err)
	}
	d := gen.Generate(gen.BeijingLike(20, 86))
	if _, err := c.Search("nope", d.Trajs[0], 1); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := c.Join("nope", "nope", 1); err == nil {
		t.Error("join on unknown dataset accepted")
	}
	if err := c.Dispatch("empty", traj.NewDataset("e", nil)); err == nil {
		t.Error("empty dispatch accepted")
	}
	if _, err := Connect(nil, testConfig()); err == nil {
		t.Error("no addresses accepted")
	}
	bad := testConfig()
	bad.Measure.Name = "bogus"
	if _, err := Connect([]string{"127.0.0.1:1"}, bad); err == nil {
		t.Error("bogus measure accepted")
	}
}

// Fréchet over the network must be exact as well (measure resolution by
// name on the worker side).
func TestNetFrechet(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(200, 87))
	cfg := testConfig()
	cfg.Measure = MeasureSpec{Name: "FRECHET"}
	c, stop := startCluster(t, 2, cfg)
	defer stop()
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	q := gen.Queries(d, 1, 88)[0]
	tau := 0.005
	hits, err := c.Search("trips", q, tau)
	if err != nil {
		t.Fatalf("Fréchet search: %v", err)
	}
	checkSearch(t, hits, d.Trajs, measure.Frechet{}, q, tau)
}

// Self-join over the network: every trajectory pairs with itself.
func TestNetSelfJoin(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(80, 89))
	c, stop := startCluster(t, 2, testConfig())
	defer stop()
	if err := c.Dispatch("A", d); err != nil {
		t.Fatal(err)
	}
	if err := c.Dispatch("B", d); err != nil {
		t.Fatal(err)
	}
	pairs, err := c.Join("A", "B", 0.001)
	if err != nil {
		t.Fatal(err)
	}
	self := 0
	for _, p := range pairs {
		if p.TID == p.QID {
			self++
		}
	}
	if self != d.Len() {
		t.Fatalf("self pairs %d, want %d", self, d.Len())
	}
}

// A worker can be shared by many datasets and partitions without
// interference.
func TestNetMultiDataset(t *testing.T) {
	c, stop := startCluster(t, 2, testConfig())
	defer stop()
	for i := 0; i < 3; i++ {
		d := gen.Generate(gen.BeijingLike(60, int64(90+i)))
		if err := c.Dispatch(fmt.Sprintf("d%d", i), d); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := c.WorkerStats()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range stats {
		total += s.Trajs
	}
	if total != 360 { // 3 datasets × 60 trajectories × 2 replicas
		t.Fatalf("workers hold %d trajectory copies, want 360", total)
	}
}

// With replication disabled, a worker dying after dispatch must surface
// as a clean error (strict mode), not a hang or a silent partial result.
func TestNetWorkerFailure(t *testing.T) {
	w1 := NewWorker()
	a1, err := w1.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w2 := NewWorker()
	a2, err := w2.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	cfg := testConfig()
	cfg.Replicas = 1
	c, err := Connect([]string{a1, a2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	d := gen.Generate(gen.BeijingLike(200, 95))
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	// Kill the second worker.
	w2.Close()
	q := gen.Queries(d, 1, 96)[0]
	// A broad search must touch both workers' partitions; the dead one
	// must produce an error.
	if _, err := c.Search("trips", q, 100); err == nil {
		t.Fatal("search over a dead worker returned no error")
	}
	// Joins must fail cleanly too.
	if err := c.Dispatch("more", d); err == nil {
		t.Fatal("dispatch to a dead worker succeeded")
	}
}
