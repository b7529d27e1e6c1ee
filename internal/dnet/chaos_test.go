package dnet

import (
	"context"
	"net/rpc"
	"strings"
	"testing"
	"time"

	"dita/internal/gen"
	"dita/internal/measure"
	"dita/internal/traj"
)

// chaosCluster starts n workers and a coordinator and hands the worker
// handles back so tests can kill and restart nodes.
func chaosCluster(t *testing.T, n int, cfg Config) ([]*Worker, []string, *Coordinator) {
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
	t.Cleanup(func() {
		c.Close()
		for _, w := range workers {
			w.Close()
		}
	})
	return workers, addrs, c
}

// chaosConfig: replicas on, fast failure detection, fast retries.
func chaosConfig() Config {
	cfg := testConfig()
	cfg.Replicas = 2
	cfg.Health = HealthPolicy{
		SuspectAfter: 1,
		DeadAfter:    2,
		PingTimeout:  time.Second,
	}
	return cfg
}

func bruteSearch(d *traj.Dataset, q *traj.T, tau float64) map[int]bool {
	m := measure.DTW{}
	want := map[int]bool{}
	for _, tr := range d.Trajs {
		if m.Distance(tr.Points, q.Points) <= tau {
			want[tr.ID] = true
		}
	}
	return want
}

func assertExactHits(t *testing.T, hits []SearchHit, want map[int]bool) {
	t.Helper()
	if len(hits) != len(want) {
		t.Fatalf("got %d hits, want %d", len(hits), len(want))
	}
	for _, h := range hits {
		if !want[h.ID] {
			t.Fatalf("spurious hit %d", h.ID)
		}
	}
}

// Killing one of three workers mid-workload must not change search
// results: every partition has a second replica to fail over to. After
// the failure detector declares the worker dead, its partitions are
// re-replicated onto the survivors, at which point even a second worker
// loss is survivable.
func TestChaosSearchFailover(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(300, 101))
	workers, _, c := chaosCluster(t, 3, chaosConfig())
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	qs := gen.Queries(d, 6, 102)
	tau := 0.01
	for i, q := range qs {
		if i == len(qs)/2 {
			// Crash a worker mid-workload.
			workers[1].Close()
		}
		hits, err := c.Search("trips", q, tau)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		assertExactHits(t, hits, bruteSearch(d, q, tau))
	}
	// Drive the failure detector: DeadAfter=2 consecutive missed checks.
	c.CheckHealth()
	states := c.CheckHealth()
	if states[1] != Dead {
		t.Fatalf("worker 1 state = %v, want dead", states[1])
	}
	if states[0] != Healthy || states[2] != Healthy {
		t.Fatalf("surviving workers not healthy: %v", states)
	}
	// Healing must have restored 2 live replicas for every partition.
	dd, err := c.dataset("trips")
	if err != nil {
		t.Fatal(err)
	}
	dd.mu.Lock()
	for pid, owners := range dd.replicas {
		if len(owners) != 2 {
			t.Fatalf("partition %d has %d replicas after heal, want 2", pid, len(owners))
		}
		for _, w := range owners {
			if w == 1 {
				t.Fatalf("partition %d still lists dead worker 1", pid)
			}
		}
	}
	dd.mu.Unlock()
	// With the dataset healed onto workers {0,2}, losing a second worker
	// still leaves one replica of everything.
	workers[2].Close()
	for _, q := range qs {
		hits, err := c.Search("trips", q, tau)
		if err != nil {
			t.Fatal(err)
		}
		assertExactHits(t, hits, bruteSearch(d, q, tau))
	}
}

// Killing a worker during the join shuffle must not change the result:
// shipments fail over to replica partitions on both the source and the
// destination side.
func TestChaosJoinFailover(t *testing.T) {
	a := gen.Generate(gen.BeijingLike(120, 103))
	b := gen.Generate(gen.BeijingLike(100, 103)) // same seed: shared routes
	for _, tr := range b.Trajs {
		tr.ID += 100000
	}
	workers, _, c := chaosCluster(t, 3, chaosConfig())
	if err := c.Dispatch("T", a); err != nil {
		t.Fatal(err)
	}
	if err := c.Dispatch("Q", b); err != nil {
		t.Fatal(err)
	}
	tau := 0.01
	m := measure.DTW{}
	want := map[[2]int]bool{}
	for _, x := range a.Trajs {
		for _, y := range b.Trajs {
			if m.Distance(x.Points, y.Points) <= tau {
				want[[2]int{x.ID, y.ID}] = true
			}
		}
	}
	// Crash a worker between dispatch and the join shuffle.
	workers[0].Close()
	pairs, err := c.Join("T", "Q", tau)
	if err != nil {
		t.Fatal(err)
	}
	got := map[[2]int]bool{}
	for _, p := range pairs {
		key := [2]int{p.TID, p.QID}
		if got[key] {
			t.Fatalf("duplicate pair %v", key)
		}
		got[key] = true
	}
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing pair %v", k)
		}
	}
}

// A worker that crashes and restarts at the same address must be
// reconnected to transparently by the managed clients, revived by the
// failure detector, and used again for new dispatches.
func TestChaosWorkerRestart(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(200, 104))
	workers, addrs, c := chaosCluster(t, 2, chaosConfig())
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	qs := gen.Queries(d, 3, 105)
	tau := 0.01
	workers[1].Close()
	// Both partitions replicated on both workers: still exact.
	for _, q := range qs {
		hits, err := c.Search("trips", q, tau)
		if err != nil {
			t.Fatal(err)
		}
		assertExactHits(t, hits, bruteSearch(d, q, tau))
	}
	c.CheckHealth()
	if states := c.CheckHealth(); states[1] != Dead {
		t.Fatalf("worker 1 state = %v, want dead", states[1])
	}
	// Restart a fresh worker on the same address (data is gone, as after
	// a process restart).
	w := NewWorker()
	if _, err := w.Serve(addrs[1]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	if states := c.CheckHealth(); states[1] != Healthy {
		t.Fatalf("restarted worker state = %v, want healthy", states[1])
	}
	// New dispatches use the revived worker again, through the
	// managed clients' automatic reconnect.
	d2 := gen.Generate(gen.BeijingLike(150, 106))
	if err := c.Dispatch("fresh", d2); err != nil {
		t.Fatal(err)
	}
	stats, err := c.WorkerStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats[1].Trajs == 0 {
		t.Fatal("restarted worker received no data on re-dispatch")
	}
	for _, q := range gen.Queries(d2, 3, 107) {
		hits, err := c.Search("fresh", q, tau)
		if err != nil {
			t.Fatal(err)
		}
		assertExactHits(t, hits, bruteSearch(d2, q, tau))
	}
}

// With replication off and a worker dead, strict mode fails the query;
// AllowPartial returns the surviving partitions' results plus a report
// naming exactly the lost partitions.
func TestChaosAllowPartialReport(t *testing.T) {
	cfg := testConfig()
	cfg.Replicas = 1
	workers, _, c := chaosCluster(t, 2, cfg)
	dT := gen.Generate(gen.BeijingLike(60, 108))
	dQ := gen.Generate(gen.BeijingLike(50, 108))
	for _, tr := range dQ.Trajs {
		tr.ID += 100000
	}
	if err := c.Dispatch("T", dT); err != nil {
		t.Fatal(err)
	}
	if err := c.Dispatch("Q", dQ); err != nil {
		t.Fatal(err)
	}
	// τ large enough that every partition is relevant and every pair
	// matches, so expectations are exact arithmetic over partition sizes.
	tau := 100.0
	deadParts := func(name string) (pids map[int]bool, trajs int) {
		dd, err := c.dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		pids = map[int]bool{}
		dd.mu.Lock()
		defer dd.mu.Unlock()
		for pid, owners := range dd.replicas {
			if owners[0] == 1 {
				pids[pid] = true
				trajs += dd.parts[pid].trajs
			}
		}
		return pids, trajs
	}
	deadT, deadTrajsT := deadParts("T")
	deadQ, deadTrajsQ := deadParts("Q")
	if len(deadT) == 0 || len(deadQ) == 0 {
		t.Fatal("test setup: worker 1 owns no partitions")
	}
	workers[1].Close()
	q := dT.Trajs[0]

	// Strict mode: all-or-nothing error naming the unreachable state.
	if _, err := c.Search("T", q, tau); err == nil {
		t.Fatal("strict search over lost partitions returned no error")
	} else if !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("unexpected strict-mode error: %v", err)
	}
	if _, err := c.Join("T", "Q", tau); err == nil {
		t.Fatal("strict join over lost partitions returned no error")
	}

	// Partial mode: exact surviving results + exact skip report.
	c.cfg.AllowPartial = true
	hits, rep, err := c.SearchTraced(context.Background(), "T", q, tau, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != dT.Len()-deadTrajsT {
		t.Fatalf("partial search returned %d hits, want %d (= %d total - %d lost)",
			len(hits), dT.Len()-deadTrajsT, dT.Len(), deadTrajsT)
	}
	if len(rep.Skipped) != len(deadT) {
		t.Fatalf("report lists %d skipped partitions, want %d", len(rep.Skipped), len(deadT))
	}
	for _, s := range rep.Skipped {
		if s.Dataset != "T" || !deadT[s.Partition] {
			t.Fatalf("report names live partition %s/%d", s.Dataset, s.Partition)
		}
		if s.Err == "" {
			t.Fatalf("skipped partition %d carries no error", s.Partition)
		}
	}

	pairs, jrep, err := c.JoinTraced(context.Background(), "T", "Q", tau, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := (dT.Len() - deadTrajsT) * (dQ.Len() - deadTrajsQ)
	if len(pairs) != wantPairs {
		t.Fatalf("partial join returned %d pairs, want %d", len(pairs), wantPairs)
	}
	gotSkip := map[SkippedPartition]bool{}
	for _, s := range jrep.Skipped {
		gotSkip[SkippedPartition{Dataset: s.Dataset, Partition: s.Partition}] = true
	}
	wantSkip := map[SkippedPartition]bool{}
	for pid := range deadT {
		wantSkip[SkippedPartition{Dataset: "T", Partition: pid}] = true
	}
	for pid := range deadQ {
		wantSkip[SkippedPartition{Dataset: "Q", Partition: pid}] = true
	}
	if len(gotSkip) != len(wantSkip) {
		t.Fatalf("join report %v, want %v", gotSkip, wantSkip)
	}
	for k := range wantSkip {
		if !gotSkip[k] {
			t.Fatalf("join report missing lost partition %s/%d", k.Dataset, k.Partition)
		}
	}
}

// Losing every worker drains the replica lists to empty. Partial-mode
// queries over drained lists must report the partitions (not panic on a
// nil error), and once a worker comes back, the next health check — with
// no further death transition — must rebuild the dataset onto it from
// the retained payloads.
func TestChaosHealRetryAfterTotalLoss(t *testing.T) {
	cfg := chaosConfig()
	cfg.AllowPartial = true
	workers, addrs, c := chaosCluster(t, 2, cfg)
	dT := gen.Generate(gen.BeijingLike(60, 114))
	dQ := gen.Generate(gen.BeijingLike(50, 114))
	for _, tr := range dQ.Trajs {
		tr.ID += 100000
	}
	if err := c.Dispatch("T", dT); err != nil {
		t.Fatal(err)
	}
	if err := c.Dispatch("Q", dQ); err != nil {
		t.Fatal(err)
	}
	tau := 100.0 // every partition relevant, every pair within tau
	for _, w := range workers {
		w.Close()
	}
	c.CheckHealth()
	states := c.CheckHealth() // DeadAfter=2: both workers buried
	if states[0] != Dead || states[1] != Dead {
		t.Fatalf("worker states after total loss = %v, want all dead", states)
	}
	dd, err := c.dataset("T")
	if err != nil {
		t.Fatal(err)
	}
	nparts := len(dd.parts)
	dd.mu.Lock()
	for pid, owners := range dd.replicas {
		if len(owners) != 0 {
			t.Fatalf("partition %d still lists replicas %v after total loss", pid, owners)
		}
	}
	dd.mu.Unlock()

	// Empty replica lists: partial queries report, with a real error.
	q := dT.Trajs[0]
	hits, rep, err := c.SearchTraced(context.Background(), "T", q, tau, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("search over a fully-lost dataset returned %d hits", len(hits))
	}
	if len(rep.Skipped) != nparts {
		t.Fatalf("report lists %d skipped partitions, want %d", len(rep.Skipped), nparts)
	}
	for _, s := range rep.Skipped {
		if !strings.Contains(s.Err, "no replicas") {
			t.Fatalf("skipped partition %d carries error %q, want a no-replicas error", s.Partition, s.Err)
		}
	}
	pairs, jrep, err := c.JoinTraced(context.Background(), "T", "Q", tau, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 || !jrep.Partial() {
		t.Fatalf("join over a fully-lost dataset: %d pairs, partial=%v", len(pairs), jrep.Partial())
	}
	for _, s := range jrep.Skipped {
		if s.Err == "" {
			t.Fatalf("skipped partition %s/%d carries no error", s.Dataset, s.Partition)
		}
	}

	// One worker returns (empty, as after a process restart). The next
	// check revives it and heals both datasets onto it — no death
	// transition involved, so this exercises the periodic re-scan.
	w := NewWorker()
	if _, err := w.Serve(addrs[0]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	if states := c.CheckHealth(); states[0] != Healthy {
		t.Fatalf("restarted worker state = %v, want healthy", states[0])
	}
	dd.mu.Lock()
	for pid, owners := range dd.replicas {
		if len(owners) != 1 || owners[0] != 0 {
			t.Fatalf("partition %d replicas after heal = %v, want [0]", pid, owners)
		}
	}
	dd.mu.Unlock()
	hits, rep, err = c.SearchTraced(context.Background(), "T", q, tau, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial() {
		t.Fatalf("healed search still partial: %+v", rep.Skipped)
	}
	if len(hits) != dT.Len() {
		t.Fatalf("healed search returned %d hits, want %d", len(hits), dT.Len())
	}
	pairs, jrep, err = c.JoinTraced(context.Background(), "T", "Q", tau, nil)
	if err != nil {
		t.Fatal(err)
	}
	if jrep.Partial() {
		t.Fatalf("healed join still partial: %+v", jrep.Skipped)
	}
	if len(pairs) != dT.Len()*dQ.Len() {
		t.Fatalf("healed join returned %d pairs, want %d", len(pairs), dT.Len()*dQ.Len())
	}
}

// An application-level error (here: a replica that lost a partition)
// must route the query to the next replica without marking the answering
// worker suspect — only transport failures count against health.
func TestChaosAppErrorDoesNotPoisonHealth(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(80, 115))
	_, _, c := chaosCluster(t, 2, chaosConfig())
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	dd, err := c.dataset("trips")
	if err != nil {
		t.Fatal(err)
	}
	dd.mu.Lock()
	preferred := dd.replicas[0][0]
	dd.mu.Unlock()
	// Drop partition 0 from its preferred replica behind the
	// coordinator's back; searches hit an rpc.ServerError there.
	var ur UnloadReply
	if err := c.clients[preferred].Call("Worker.Unload", &UnloadArgs{Dataset: "trips", Partition: 0}, &ur); err != nil {
		t.Fatal(err)
	}
	if !ur.Unloaded {
		t.Fatal("preferred replica did not hold partition 0")
	}
	tau := 100.0 // every partition (including 0) is relevant
	hits, err := c.Search("trips", d.Trajs[0], tau)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != d.Len() {
		t.Fatalf("failover search returned %d hits, want %d", len(hits), d.Len())
	}
	for i, s := range c.WorkerStates() {
		if s != Healthy {
			t.Fatalf("worker %d state = %v after an application error, want healthy", i, s)
		}
	}
}

// Peer-unreachable detection is structural: only an rpc.ServerError
// carrying the exact Ship prefix selects destination-side failover.
func TestIsPeerUnreachable(t *testing.T) {
	if !isPeerUnreachable(rpc.ServerError(peerUnreachablePrefix + "127.0.0.1:9: connection refused")) {
		t.Fatal("genuine ship error not detected")
	}
	if isPeerUnreachable(rpc.ServerError("dnet: dataset about peer unreachable things not loaded")) {
		t.Fatal("substring in an unrelated application error detected as peer-unreachable")
	}
	if isPeerUnreachable(errTest(peerUnreachablePrefix + "x")) {
		t.Fatal("non-ServerError detected as peer-unreachable")
	}
	if isPeerUnreachable(nil) {
		t.Fatal("nil error detected as peer-unreachable")
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

// A dispatch that fails partway (one worker dead, no replicas possible)
// must unload everything it already shipped, so a later retry cannot
// double-index partitions on the surviving workers.
func TestChaosDispatchRollback(t *testing.T) {
	cfg := testConfig()
	cfg.Replicas = 1
	workers, addrs, c := chaosCluster(t, 2, cfg)
	workers[1].Close()
	d := gen.Generate(gen.BeijingLike(120, 109))
	if err := c.Dispatch("trips", d); err == nil {
		t.Fatal("dispatch with a dead worker and no replicas succeeded")
	}
	var stats StatsReply
	if err := c.clients[0].Call("Worker.Stats", &StatsArgs{}, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Partitions != 0 {
		t.Fatalf("surviving worker still holds %d partitions after rollback", stats.Partitions)
	}
	// After the worker comes back, the retried dispatch lands exactly one
	// copy of the data.
	w := NewWorker()
	if _, err := w.Serve(addrs[1]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	all, err := c.WorkerStats()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range all {
		total += s.Trajs
	}
	if total != d.Len() {
		t.Fatalf("workers hold %d trajectory copies after retry, want %d", total, d.Len())
	}
}

// Under seeded fault injection (random severed connections), the managed
// clients' retry + reconnect keeps search exact.
func TestChaosFaultInjectionSearch(t *testing.T) {
	plan := &FaultPlan{Seed: 7, ErrorRate: 0.003}
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
	cfg := chaosConfig()
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
	d := gen.Generate(gen.BeijingLike(150, 110))
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	tau := 0.01
	for _, q := range gen.Queries(d, 5, 111) {
		hits, err := c.Search("trips", q, tau)
		if err != nil {
			t.Fatal(err)
		}
		assertExactHits(t, hits, bruteSearch(d, q, tau))
	}
}

// Connections that are severed after a fixed op budget force periodic
// reconnects; dispatch, search, and the worker-to-worker join shuffle
// must all recover transparently.
func TestChaosFaultInjectionSever(t *testing.T) {
	plan := &FaultPlan{Seed: 11, SeverAfter: 400}
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
	cfg := chaosConfig()
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
	d := gen.Generate(gen.BeijingLike(80, 112))
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

// The heartbeat loop starts with the coordinator and stops with Close,
// without leaking goroutines or racing manual checks.
func TestChaosHeartbeatLoop(t *testing.T) {
	cfg := chaosConfig()
	cfg.Health.Interval = time.Millisecond
	workers, _, c := chaosCluster(t, 2, cfg)
	d := gen.Generate(gen.BeijingLike(60, 113))
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	c.CheckHealth() // manual checks coexist with the loop
	_ = workers
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestParseFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan("seed=7,drop=0.05,err=0.01,delay=2ms,sever=500")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 7 || plan.DropRate != 0.05 || plan.ErrorRate != 0.01 ||
		plan.Delay != 2*time.Millisecond || plan.SeverAfter != 500 {
		t.Fatalf("parsed %+v", plan)
	}
	if _, err := ParseFaultPlan("bogus=1"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := ParseFaultPlan("seed"); err == nil {
		t.Fatal("missing value accepted")
	}
	if plan, err := ParseFaultPlan(""); err != nil || plan.Seed != 1 {
		t.Fatalf("empty spec: %+v, %v", plan, err)
	}
}

// Worker.Close and Worker.Shutdown are idempotent and callable in any
// order; RPCs after shutdown fail cleanly.
func TestWorkerShutdownIdempotent(t *testing.T) {
	w := NewWorker()
	addr, err := w.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mc := newManagedClient(addr, RetryPolicy{MaxAttempts: 1, CallTimeout: time.Second})
	defer mc.Close()
	var pong PingReply
	if err := mc.Call("Worker.Ping", &PingArgs{}, &pong); err != nil {
		t.Fatal(err)
	}
	if err := w.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := mc.Call("Worker.Ping", &PingArgs{}, &pong); err == nil {
		t.Fatal("ping succeeded after shutdown")
	}
}

// The retry classifier: application errors are final, transport errors
// are retryable.
func TestRetryClassification(t *testing.T) {
	w := NewWorker()
	addr, err := w.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	mc := newManagedClient(addr, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, CallTimeout: time.Second})
	defer mc.Close()
	// Application error (unknown partition): must come back verbatim,
	// not wrapped in "failed after N attempts".
	var reply SearchReply
	err = mc.Call("Worker.Search", &SearchArgs{Dataset: "none", Partition: 0}, &reply)
	if err == nil || strings.Contains(err.Error(), "attempts") {
		t.Fatalf("application error was retried: %v", err)
	}
	// Transport error (dead address): retried and reported as exhausted.
	dead := newManagedClient("127.0.0.1:1", RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, CallTimeout: time.Second})
	defer dead.Close()
	err = dead.Call("Worker.Ping", &PingArgs{}, &PingReply{})
	if err == nil || !strings.Contains(err.Error(), "attempts") {
		t.Fatalf("transport error not retried: %v", err)
	}
}
