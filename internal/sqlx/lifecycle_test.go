package sqlx

import (
	"context"
	"errors"
	"testing"
	"time"

	"dita/internal/admit"
)

// A cancelled context aborts a SELECT before it runs.
func TestExecContextPreCancelled(t *testing.T) {
	db, d := newTestDB(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.ExecContext(ctx, "SELECT * FROM T WHERE DTW(T, ?) <= 0.01", d.Trajs[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// DDL is not gated by query lifecycle concerns beyond the statement
	// switch; the same DB still executes normally afterwards.
	if _, err := db.Exec("SELECT * FROM T WHERE DTW(T, ?) <= 0.01", d.Trajs[0]); err != nil {
		t.Fatalf("follow-up query: %v", err)
	}
}

// A deadline interrupts a full scan mid-flight (no index: the scan checks
// the context between trajectories).
func TestExecContextDeadlineInterruptsScan(t *testing.T) {
	db, d := newTestDB(t, 3000)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	start := time.Now()
	_, err := db.ExecContext(ctx, "SELECT * FROM T WHERE DTW(T, ?) <= 0.01", d.Trajs[0])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("expired scan took %v", elapsed)
	}
}

// Admission control on the DB: with MaxConcurrent=1 and no queue, a
// SELECT arriving while the slot is held is rejected with ErrOverloaded;
// EXPLAIN and DDL stay exempt. The slot is held directly through the
// gate (the same one execSelect acquires) so the test is
// deterministic regardless of how fast a real query would finish.
func TestDBAdmissionOverload(t *testing.T) {
	db, d := newTestDB(t, 100)
	db.SetAdmission(admit.Policy{MaxConcurrent: 1, MaxQueue: 0})

	release, err := db.adm.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	_, err = db.Exec("SELECT * FROM T WHERE DTW(T, ?) <= 0.01", d.Trajs[0])
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("query at capacity: err = %v, want ErrOverloaded", err)
	}
	// EXPLAIN is free: it only plans, so it must not be rejected.
	if _, err := db.Exec("EXPLAIN SELECT * FROM T WHERE DTW(T, ?) <= 0.01", d.Trajs[0]); err != nil {
		t.Fatalf("EXPLAIN rejected under load: %v", err)
	}
	// DDL is free too.
	if _, err := db.Exec("SHOW TABLES"); err != nil {
		t.Fatalf("SHOW TABLES rejected under load: %v", err)
	}

	release()
	// Slot released: the DB admits queries again.
	if _, err := db.Exec("SELECT * FROM T WHERE DTW(T, ?) <= 0.01", d.Trajs[0]); err != nil {
		t.Fatalf("post-release query: %v", err)
	}
}

// Indexed searches pass the context into the engine: a cancelled context
// aborts even when a trie index serves the query.
func TestExecContextCancelledIndexedSearch(t *testing.T) {
	db, d := newTestDB(t, 200)
	if _, err := db.Exec("CREATE INDEX TrieIndex ON T USE TRIE"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.ExecContext(ctx, "SELECT * FROM T WHERE DTW(T, ?) <= 0.01", d.Trajs[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("indexed search err = %v, want context.Canceled", err)
	}
}
