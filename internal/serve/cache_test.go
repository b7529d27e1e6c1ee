package serve

import (
	"fmt"
	"testing"

	"dita/internal/geom"
)

func q2(a, b float64) []geom.Point {
	return []geom.Point{{X: a, Y: b}, {X: a + 1, Y: b + 1}}
}

func searchKey(q []geom.Point, tau float64) Key {
	return Key{Op: OpSearch, Measure: "DTW", Tau: tau, QHash: HashQuery(q)}
}

func ev(bounds uint64, parts ...uint64) EpochView {
	return EpochView{Bounds: bounds, Parts: parts}
}

func TestCacheHitWhileEpochsUnchanged(t *testing.T) {
	c := NewCache(16, 0)
	q := q2(1, 2)
	key := searchKey(q, 0.5)
	c.Put(key, q, []Hit{{ID: 7}}, 48, ev(0, 3, 5), []int{0})
	val, ok := c.Get(key, q, ev(0, 3, 5))
	if !ok {
		t.Fatal("expected hit at unchanged epochs")
	}
	if hits := val.([]Hit); len(hits) != 1 || hits[0].ID != 7 {
		t.Fatalf("wrong cached value: %+v", hits)
	}
	// Advancing a partition the answer does NOT depend on keeps the
	// entry valid — the point of per-partition watermarks.
	if _, ok := c.Get(key, q, ev(0, 3, 9)); !ok {
		t.Fatal("write to untouched partition invalidated the entry")
	}
}

func TestCacheStaleOnTouchedWrite(t *testing.T) {
	c := NewCache(16, 0)
	q := q2(1, 2)
	key := searchKey(q, 0.5)
	c.Put(key, q, []Hit{{ID: 7}}, 48, ev(0, 3, 5), []int{0})
	if _, ok := c.Get(key, q, ev(0, 4, 5)); ok {
		t.Fatal("write to touched partition 0 must invalidate")
	}
	// Stale entries are removed, not retried.
	if st := c.Stats(); st.Entries != 0 || st.Stale != 1 {
		t.Fatalf("stale entry not removed: %+v", st)
	}
}

func TestCacheStaleOnBoundsGrowth(t *testing.T) {
	c := NewCache(16, 0)
	q := q2(1, 2)
	key := searchKey(q, 0.5)
	// Touched = {0}; partition 1's epoch is untouched but the bounds
	// epoch advanced — partition 1 may have grown into relevance, so
	// the entry must die even though its touched set is unwritten.
	c.Put(key, q, []Hit{{ID: 7}}, 48, ev(0, 3, 5), []int{0})
	if _, ok := c.Get(key, q, ev(1, 3, 5)); ok {
		t.Fatal("bounds growth must invalidate every entry")
	}
}

func TestCacheNilTouchedDependsOnEverything(t *testing.T) {
	c := NewCache(16, 0)
	q := q2(1, 2)
	key := Key{Op: OpKNN, Measure: "DTW", K: 5, QHash: HashQuery(q)}
	c.Put(key, q, []Hit{{ID: 1}}, 48, ev(0, 3, 5), nil)
	if _, ok := c.Get(key, q, ev(0, 3, 5)); !ok {
		t.Fatal("expected hit")
	}
	if _, ok := c.Get(key, q, ev(0, 3, 6)); ok {
		t.Fatal("nil touched (kNN) must invalidate on any partition write")
	}
}

func TestCacheEmptyTouchedSurvivesWrites(t *testing.T) {
	c := NewCache(16, 0)
	q := q2(50, 50)
	key := searchKey(q, 0.1)
	// A search that pruned every partition depends only on the bounds:
	// writes that don't grow MBRs cannot make it wrong.
	c.Put(key, q, []Hit{}, 32, ev(2, 3, 5), []int{})
	if _, ok := c.Get(key, q, ev(2, 99, 99)); !ok {
		t.Fatal("empty touched set must survive non-growing writes")
	}
	if _, ok := c.Get(key, q, ev(3, 99, 99)); ok {
		t.Fatal("empty touched set must still die on bounds growth")
	}
}

func TestCacheHashCollisionGuard(t *testing.T) {
	c := NewCache(16, 0)
	qa, qb := q2(1, 2), q2(3, 4)
	key := searchKey(qa, 0.5) // pretend qb collides: same Key, different points
	c.Put(key, qa, []Hit{{ID: 1}}, 48, ev(0, 0), []int{0})
	if _, ok := c.Get(key, qb, ev(0, 0)); ok {
		t.Fatal("returned an answer for a different query with a colliding hash")
	}
	if _, ok := c.Get(key, qa, ev(0, 0)); ok {
		t.Fatal("colliding lookup should have evicted the resident entry")
	}
}

func TestCacheCaps(t *testing.T) {
	c := NewCache(3, 0)
	for i := 0; i < 5; i++ {
		q := q2(float64(i), 0)
		c.Put(searchKey(q, 0.5), q, []Hit{}, 32, ev(0, 0), nil)
	}
	if st := c.Stats(); st.Entries != 3 || st.Evicted != 2 {
		t.Fatalf("entry cap not enforced: %+v", st)
	}
	// Oldest entries evicted first.
	q0 := q2(0, 0)
	if _, ok := c.Get(searchKey(q0, 0.5), q0, ev(0, 0)); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	q4 := q2(4, 0)
	if _, ok := c.Get(searchKey(q4, 0.5), q4, ev(0, 0)); !ok {
		t.Fatal("newest entry missing")
	}

	// Byte cap, and a single entry always fits (the floor keeps the
	// evict loop from emptying the cache entirely).
	cb := NewCache(100, 100)
	for i := 0; i < 4; i++ {
		q := q2(float64(i), 1)
		cb.Put(searchKey(q, 0.5), q, []Hit{}, 60, ev(0, 0), nil)
	}
	if st := cb.Stats(); st.Entries != 1 || st.Bytes != 60 {
		t.Fatalf("byte cap not enforced: %+v", st)
	}

	// A result larger than the whole byte cap is never admitted: it
	// would pin more than maxBytes indefinitely (the evict loop keeps
	// one resident entry) and displace everything else for nothing.
	qh := q2(9, 9)
	cb.Put(searchKey(qh, 0.5), qh, []Hit{}, 101, ev(0, 0), nil)
	if _, ok := cb.Get(searchKey(qh, 0.5), qh, ev(0, 0)); ok {
		t.Fatal("oversized result was cached")
	}
	if st := cb.Stats(); st.Bytes > 100 {
		t.Fatalf("cache exceeds its byte cap: %+v", st)
	}
	// ...and the resident small entry survived the oversized Put.
	q3 := q2(3, 1)
	if _, ok := cb.Get(searchKey(q3, 0.5), q3, ev(0, 0)); !ok {
		t.Fatal("oversized Put displaced the resident entry")
	}
}

func TestCacheNilAndHashing(t *testing.T) {
	var c *Cache
	q := q2(1, 1)
	c.Put(searchKey(q, 0.5), q, []Hit{}, 0, ev(0), nil)
	if _, ok := c.Get(searchKey(q, 0.5), q, ev(0)); ok {
		t.Fatal("nil cache returned a hit")
	}
	if NewCache(0, 10) != nil {
		t.Fatal("maxEntries <= 0 must disable the cache")
	}
	if HashQuery(q2(1, 2)) == HashQuery(q2(1, 3)) {
		t.Fatal("distinct queries hashed identically")
	}
	// Exact float bits matter: nearly-equal queries are different queries.
	if HashQuery([]geom.Point{{X: 1, Y: 0}}) == HashQuery([]geom.Point{{X: 1 + 1e-15, Y: 0}}) {
		t.Fatal("nearly-equal queries conflated")
	}
}

func TestCacheKeySeparatesParameters(t *testing.T) {
	c := NewCache(16, 0)
	q := q2(1, 2)
	c.Put(searchKey(q, 0.5), q, []Hit{{ID: 1}}, 48, ev(0, 0), nil)
	for _, k := range []Key{
		searchKey(q, 0.6), // different tau
		{Op: OpKNN, Measure: "DTW", K: 5, QHash: HashQuery(q)},            // different op
		{Op: OpSearch, Measure: "Frechet", Tau: 0.5, QHash: HashQuery(q)}, // measure
	} {
		if _, ok := c.Get(k, q, ev(0, 0)); ok {
			t.Fatalf("key %+v aliased a different query's entry", k)
		}
	}
}

func TestCacheStatsString(t *testing.T) {
	// Ops print for logs and headers.
	for op, want := range map[Op]string{OpSearch: "search", OpKNN: "knn", OpJoin: "join", Op(9): "unknown"} {
		if got := op.String(); got != want {
			t.Fatalf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
	_ = fmt.Sprintf("%+v", NewCache(1, 1).Stats())
}

// TestCacheAcrossRebalanceCutover pins the cache's behavior against the
// coordinator's online re-partitioning: a cutover APPENDS piece
// partitions (Parts grows), retires the replaced pids in place, and
// bumps the bounds epoch. Growth alone must not fake-stale entries whose
// touched partitions are unwritten; the cutover's bounds bump must stale
// everything; and a touched pid the live layout lacks (a recovery that
// shrank the table) reads stale, never out of range.
func TestCacheAcrossRebalanceCutover(t *testing.T) {
	c := NewCache(16, 0)
	q := q2(1, 2)
	key := searchKey(q, 0.5)
	c.Put(key, q, []Hit{{ID: 7}}, 48, ev(4, 1, 2), []int{1})
	// Parts grown, touched pid and bounds unchanged: still fresh — an
	// appended partition cannot hold a qualifying member without the
	// bounds epoch advancing.
	if _, ok := c.Get(key, q, ev(4, 1, 2, 0, 0)); !ok {
		t.Fatal("grown Parts with unchanged touched pid invalidated the entry")
	}
	// The cutover itself bumps Bounds: every entry dies.
	if _, ok := c.Get(key, q, ev(5, 1, 2, 0, 0)); ok {
		t.Fatal("cache served across a cutover's bounds bump")
	}
	c.Put(key, q, []Hit{{ID: 7}}, 48, ev(6, 1, 2, 3), []int{2})
	if _, ok := c.Get(key, q, ev(6, 1, 2)); ok {
		t.Fatal("cache served an entry touching a partition the live layout lacks")
	}
}
