package admit

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dita/internal/obs"
)

// A nil gate (admission disabled) admits everything.
func TestNilController(t *testing.T) {
	var c *CostGate
	release, err := c.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatalf("nil gate rejected: %v", err)
	}
	release()
	if c.InFlight() != 0 || c.Waiting() != 0 {
		t.Fatal("nil gate reported activity")
	}
	if New(Policy{}) != nil || New(Policy{MaxConcurrent: -3}) != nil {
		t.Fatal("MaxConcurrent <= 0 should build a nil gate")
	}
}

// With limit N and queue Q, query N+Q+1 fails fast with ErrOverloaded —
// the acceptance shape from the issue.
func TestOverloadedFailsFast(t *testing.T) {
	c := New(Policy{MaxConcurrent: 2, MaxQueue: 1, QueueTimeout: time.Minute})
	var releases []func()
	for i := 0; i < 2; i++ {
		release, err := c.Acquire(context.Background(), 1)
		if err != nil {
			t.Fatalf("query %d rejected below the limit: %v", i, err)
		}
		releases = append(releases, release)
	}
	// Query 3 occupies the single queue slot.
	queued := make(chan error, 1)
	go func() {
		release, err := c.Acquire(context.Background(), 1)
		if err == nil {
			release()
		}
		queued <- err
	}()
	waitFor(t, func() bool { return c.Waiting() == 1 })
	// Query 4 finds slots and queue full: immediate typed rejection.
	start := time.Now()
	_, err := c.Acquire(context.Background(), 1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-capacity acquire: err = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("rejection took %v, want fail-fast", d)
	}
	// Releasing a slot admits the queued query.
	releases[0]()
	if err := <-queued; err != nil {
		t.Fatalf("queued query: %v", err)
	}
	releases[1]()
}

// A queued query gives up with ErrOverloaded after QueueTimeout.
func TestQueueTimeout(t *testing.T) {
	c := New(Policy{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: 50 * time.Millisecond})
	release, err := c.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	start := time.Now()
	_, err = c.Acquire(context.Background(), 1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queued acquire: err = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d < 40*time.Millisecond || d > 5*time.Second {
		t.Fatalf("queue wait was %v, want ~50ms", d)
	}
}

// A queued query whose context ends first returns the context error, not
// ErrOverloaded — the caller cancelled, the system is not to blame.
func TestQueueCancellation(t *testing.T) {
	c := New(Policy{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: time.Minute})
	release, err := c.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, 1)
		done <- err
	}()
	waitFor(t, func() bool { return c.Waiting() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queue wait: err = %v, want context.Canceled", err)
	}
}

// Release is idempotent and frees the slot for the next query.
func TestReleaseIdempotent(t *testing.T) {
	c := New(Policy{MaxConcurrent: 1})
	release, err := c.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	release()
	release() // double release must not free a slot twice
	if got := c.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after release", got)
	}
	r2, err := c.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r2()
	if _, err := c.Acquire(context.Background(), 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("slot double-freed: second acquire err = %v", err)
	}
}

// Hammer the gate: InFlight never exceeds the limit.
func TestConcurrentAcquireBound(t *testing.T) {
	const limit = 4
	c := New(Policy{MaxConcurrent: limit, MaxQueue: 64, QueueTimeout: time.Minute})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := c.Acquire(context.Background(), 1)
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			if n := c.InFlight(); n > limit {
				t.Errorf("InFlight = %d > limit %d", n, limit)
			}
			time.Sleep(time.Millisecond)
			release()
		}()
	}
	wg.Wait()
	if c.InFlight() != 0 || c.Waiting() != 0 {
		t.Fatalf("leaked: inflight=%d waiting=%d", c.InFlight(), c.Waiting())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// Instrument must expose gauges for live state and counters for every
// admission outcome, with queue wait observed only for queued queries.
func TestInstrument(t *testing.T) {
	reg := obs.New()
	c := New(Policy{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: 20 * time.Millisecond})
	c.Instrument(reg, "admit")
	var nilC *CostGate
	nilC.Instrument(reg, "nil") // must not panic

	// Fast-path admit.
	rel1, err := c.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Gauges["admit_queries_inflight"]; got != 1 {
		t.Fatalf("inflight gauge = %d, want 1", got)
	}
	if _, ok := reg.Snapshot().Gauges["admit_cost_inflight_us"]; ok {
		t.Fatal("a count gate registered a cost gauge")
	}
	// Queued admit: release the slot while a second query waits.
	done := make(chan error, 1)
	go func() {
		rel2, err := c.Acquire(context.Background(), 1)
		if err == nil {
			rel2()
		}
		done <- err
	}()
	for c.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	rel1()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Saturate to force a rejection: hold the slot, fill the queue, and
	// have a third query bounce off the full queue.
	rel3, err := c.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rel3()
	wait := make(chan error, 1)
	go func() {
		rel, err := c.Acquire(context.Background(), 1)
		if err == nil {
			rel()
		}
		wait <- err
	}()
	for c.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Acquire(context.Background(), 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-full acquire = %v, want ErrOverloaded", err)
	}
	if err := <-wait; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queued acquire = %v, want timeout ErrOverloaded", err)
	}
	// Cancelled waiter.
	ctx, cancel := context.WithCancel(context.Background())
	cancelDone := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, 1)
		cancelDone <- err
	}()
	for c.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-cancelDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire = %v", err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["admit_admitted_total"]; got != 3 {
		t.Fatalf("admitted = %d, want 3", got)
	}
	if got := snap.Counters["admit_rejected_total"]; got != 2 {
		t.Fatalf("rejected = %d, want 2 (queue-full + timeout)", got)
	}
	if got := snap.Counters["admit_cancelled_total"]; got != 1 {
		t.Fatalf("cancelled = %d, want 1", got)
	}
	if snap.Histograms["admit_queue_wait_us"].Count != 1 {
		t.Fatalf("queue_wait observations = %d, want 1 (only the queued admit)",
			snap.Histograms["admit_queue_wait_us"].Count)
	}
}
