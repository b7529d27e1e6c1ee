package dnet

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dita/internal/gen"
	"dita/internal/measure"
)

// startClusterHooked is startCluster but returns the workers and installs
// hook on every worker *before* Serve (hooks must be in place before the
// accept goroutine starts; dynamic behavior belongs inside the hook,
// driven by atomics).
func startClusterHooked(t *testing.T, n int, cfg Config, hook func(*SearchArgs)) (*Coordinator, []*Worker, func()) {
	t.Helper()
	var workers []*Worker
	var addrs []string
	for i := 0; i < n; i++ {
		w := NewWorker()
		w.searchHook = hook
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
	return c, workers, func() {
		c.Close()
		for _, w := range workers {
			w.Close()
		}
	}
}

// A partition whose verification panics mid-Search must degrade into an
// AllowPartial skip report — the coordinator and the workers survive, and
// once the fault clears a retry returns exact results. (Named Chaos so
// `make chaos` re-runs it.)
func TestChaosSearchPanicYieldsPartialThenExactRetry(t *testing.T) {
	var poison atomic.Bool
	poison.Store(true)
	hook := func(args *SearchArgs) {
		if poison.Load() {
			panic("injected search fault")
		}
	}
	cfg := testConfig()
	cfg.AllowPartial = true
	c, _, stop := startClusterHooked(t, 3, cfg, hook)
	defer stop()
	d := gen.Generate(gen.BeijingLike(300, 90))
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	q := gen.Queries(d, 1, 91)[0]
	tau := 0.01

	hits, rep, err := c.SearchTraced(context.Background(), "trips", q, tau, nil)
	if err != nil {
		t.Fatalf("partial search errored: %v", err)
	}
	if !rep.Partial() {
		t.Fatal("universal panic produced no skip report")
	}
	if len(hits) != 0 {
		t.Fatalf("%d hits from partitions that all panicked", len(hits))
	}
	attributed := false
	for _, s := range rep.Skipped {
		if strings.Contains(s.Err, "injected search fault") {
			attributed = true
		}
	}
	if !attributed {
		t.Fatalf("skip report not attributed to the panic: %+v", rep.Skipped)
	}

	// Fault clears; the same cluster (nothing restarted, nobody crashed)
	// answers exactly.
	poison.Store(false)
	got, rep, err := c.SearchTraced(context.Background(), "trips", q, tau, nil)
	if err != nil || rep.Partial() {
		t.Fatalf("retry: err=%v partial=%v", err, rep.Partial())
	}
	checkSearch(t, got, d.Trajs, measure.DTW{}, q, tau)
}

// Admission control on the coordinator: with MaxConcurrent=1 and
// MaxQueue=1, the third concurrent query is rejected immediately with
// ErrOverloaded while the first still runs and the second waits.
func TestAdmissionOverloadFailsFast(t *testing.T) {
	block := make(chan struct{})
	hook := func(args *SearchArgs) { <-block }
	cfg := testConfig()
	cfg.Admission.MaxConcurrent = 1
	cfg.Admission.MaxQueue = 1
	cfg.Admission.QueueTimeout = time.Minute
	c, _, stop := startClusterHooked(t, 2, cfg, hook)
	defer stop()
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	d := gen.Generate(gen.BeijingLike(150, 92))
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	q := gen.Queries(d, 1, 93)[0]

	// Query 1 holds the slot, blocked inside the worker RPC.
	q1done := make(chan error, 1)
	go func() {
		_, _, err := c.SearchTraced(context.Background(), "trips", q, 0.01, nil)
		q1done <- err
	}()
	waitCond(t, func() bool { return c.adm.InFlight() == 1 })

	// Query 2 occupies the queue.
	q2done := make(chan error, 1)
	go func() {
		_, _, err := c.SearchTraced(context.Background(), "trips", q, 0.01, nil)
		q2done <- err
	}()
	waitCond(t, func() bool { return c.adm.Waiting() == 1 })

	// Query 3: slots and queue full — typed fail-fast rejection.
	start := time.Now()
	_, _, err := c.SearchTraced(context.Background(), "trips", q, 0.01, nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third query: err = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("overload rejection took %v", d)
	}

	// Unblock: both held queries must complete cleanly.
	release()
	if err := <-q1done; err != nil {
		t.Fatalf("query 1: %v", err)
	}
	if err := <-q2done; err != nil {
		t.Fatalf("query 2: %v", err)
	}
}

// A queued query gives up with ErrOverloaded once QueueTimeout passes.
func TestAdmissionQueueTimeout(t *testing.T) {
	block := make(chan struct{})
	hook := func(args *SearchArgs) { <-block }
	cfg := testConfig()
	cfg.Admission.MaxConcurrent = 1
	cfg.Admission.MaxQueue = 1
	cfg.Admission.QueueTimeout = 150 * time.Millisecond
	c, _, stop := startClusterHooked(t, 2, cfg, hook)
	defer stop()
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	d := gen.Generate(gen.BeijingLike(150, 94))
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	q := gen.Queries(d, 1, 95)[0]

	q1done := make(chan error, 1)
	go func() {
		_, _, err := c.SearchTraced(context.Background(), "trips", q, 0.01, nil)
		q1done <- err
	}()
	waitCond(t, func() bool { return c.adm.InFlight() == 1 })

	start := time.Now()
	_, _, err := c.SearchTraced(context.Background(), "trips", q, 0.01, nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queued query: err = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d < 100*time.Millisecond || d > 5*time.Second {
		t.Fatalf("queue wait was %v, want ~150ms", d)
	}

	release()
	if err := <-q1done; err != nil {
		t.Fatalf("query 1: %v", err)
	}
}

// Cancelled/expired queries must not leak goroutines: the fan-out workers
// drain and abandoned RPC calls complete into discarded replies. The
// goroutine count returns to its pre-churn level.
func TestSearchCancelNoGoroutineLeak(t *testing.T) {
	var slow atomic.Bool
	hook := func(args *SearchArgs) {
		if slow.Load() {
			time.Sleep(50 * time.Millisecond)
		}
	}
	c, _, stop := startClusterHooked(t, 3, testConfig(), hook)
	defer stop()
	d := gen.Generate(gen.BeijingLike(300, 96))
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	q := gen.Queries(d, 1, 97)[0]
	// Warm up connections and server goroutines before the baseline.
	if _, _, err := c.SearchTraced(context.Background(), "trips", q, 0.01, nil); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	slow.Store(true)
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, _, err := c.SearchTraced(ctx, "trips", q, 0.01, nil)
		cancel()
		if err == nil {
			t.Fatal("10ms deadline against 50ms-per-RPC workers succeeded")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("query %d: err = %v, want context.DeadlineExceeded", i, err)
		}
	}
	slow.Store(false)

	// Give abandoned calls and fan-out goroutines time to drain, then
	// require the count to settle back to (near) the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// And the cluster still answers after the churn.
	if _, _, err := c.SearchTraced(context.Background(), "trips", q, 0.01, nil); err != nil {
		t.Fatalf("post-churn search: %v", err)
	}
}

// A context cancelled before the call never dials, never retries.
func TestCallContextPreCancelled(t *testing.T) {
	mc := newManagedClient(deadAddr(t), RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Second})
	defer mc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := mc.CallContext(ctx, "Worker.Ping", &PingArgs{}, &PingReply{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("pre-cancelled call took %v", d)
	}
}

// Cancellation during a backoff sleep aborts the sleep: a dead query must
// not sit out a 10s backoff before noticing.
func TestCallContextBackoffCancelled(t *testing.T) {
	mc := newManagedClient(deadAddr(t), RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   10 * time.Second,
		MaxDelay:    10 * time.Second,
		CallTimeout: time.Second,
	})
	defer mc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := mc.CallContext(ctx, "Worker.Ping", &PingArgs{}, &PingReply{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled call returned after %v (sat in backoff?)", elapsed)
	}
}

// An expired per-query deadline fails the call without consuming retries.
func TestCallContextExpiredDeadlineNoRetry(t *testing.T) {
	mc := newManagedClient(deadAddr(t), RetryPolicy{MaxAttempts: 5, BaseDelay: 5 * time.Second})
	defer mc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	start := time.Now()
	err := mc.CallContext(ctx, "Worker.Ping", &PingArgs{}, &PingReply{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("expired call took %v", d)
	}
}

// CancelInflight (the dita-worker SIGINT path) aborts a running query but
// leaves the worker serving subsequent ones. The hook blocks the query
// inside the handler — after its query context is derived — so the cancel
// deterministically lands on in-flight work.
func TestChaosCancelInflightKeepsWorkerAlive(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 64)
	var blocking atomic.Bool
	blocking.Store(true)
	hook := func(args *SearchArgs) {
		if blocking.Load() {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-block
		}
	}
	cfg := testConfig()
	cfg.Replicas = 1
	c, workers, stop := startClusterHooked(t, 2, cfg, hook)
	defer stop()
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	d := gen.Generate(gen.BeijingLike(200, 98))
	if err := c.Dispatch("trips", d); err != nil {
		t.Fatal(err)
	}
	q := gen.Queries(d, 1, 99)[0]

	done := make(chan error, 1)
	go func() {
		// A deadline makes the worker derive its handler context from the
		// cancellable base (TimeoutMillis > 0 travels in-band).
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_, _, err := c.SearchTraced(ctx, "trips", q, 0.01, nil)
		done <- err
	}()
	// Wait for a handler that has already derived its query context to
	// reach the hook — that one is guaranteed to observe the cancel.
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no Search RPC reached the hook in 5s")
	}
	// SIGINT sequence: cancel in-flight queries, then let the blocked
	// handlers resume — they observe their cancelled context and error.
	for _, w := range workers {
		w.CancelInflight()
	}
	blocking.Store(false)
	release()
	if err := <-done; err == nil {
		t.Fatal("query survived CancelInflight (Replicas=1, no failover possible)")
	}
	// The same workers answer new queries (no restart, fresh base ctx).
	if _, _, err := c.SearchTraced(context.Background(), "trips", q, 0.01, nil); err != nil {
		t.Fatalf("post-cancel search: %v", err)
	}
}

// waitCond polls until cond holds or 5s pass.
func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// deadAddr returns a loopback address with no listener.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}
