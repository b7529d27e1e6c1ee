package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dita/internal/core"
	"dita/internal/gen"
	"dita/internal/geom"
	"dita/internal/traj"
)

// devServer builds an EngineBackend server over a small generated
// dataset with ingest enabled (memory-only WAL) and returns the HTTP
// test server plus the dataset for query material.
func devServer(t *testing.T, cfg Config) (*httptest.Server, *Server, *traj.Dataset) {
	t.Helper()
	d := gen.Generate(gen.BeijingLike(120, 11))
	opts := core.DefaultOptions()
	opts.NG = 4
	e, err := core.NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnableIngest(core.IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	cfg.Backend = &EngineBackend{E: e, Dataset: "trips"}
	cfg.Dataset = "trips"
	cfg.Measure = "DTW"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s, d
}

func post(t *testing.T, url string, body any) (int, http.Header, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

func rawPoints(ps []geom.Point) [][2]float64 {
	out := make([][2]float64, len(ps))
	for i, p := range ps {
		out[i] = [2]float64{p.X, p.Y}
	}
	return out
}

func decodeQuery(t *testing.T, body []byte) queryResponse {
	t.Helper()
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	return qr
}

func TestServerSearchCacheLifecycle(t *testing.T) {
	ts, srv, d := devServer(t, Config{})
	q := d.Trajs[3]
	req := searchRequest{Query: rawPoints(q.Points), Tau: 0.4}

	status, hdr, body := post(t, ts.URL+"/v1/search", req)
	if status != http.StatusOK {
		t.Fatalf("search: %d %s", status, body)
	}
	if got := hdr.Get("X-Dita-Cache"); got != "miss" {
		t.Fatalf("first query cache state %q, want miss", got)
	}
	first := decodeQuery(t, body)
	if first.Count == 0 {
		t.Fatal("self-query returned no hits")
	}

	status, hdr, body = post(t, ts.URL+"/v1/search", req)
	if status != http.StatusOK || hdr.Get("X-Dita-Cache") != "hit" {
		t.Fatalf("repeat query: status=%d cache=%q", status, hdr.Get("X-Dita-Cache"))
	}
	if got := decodeQuery(t, body); got.Count != first.Count {
		t.Fatalf("cached answer diverged: %d vs %d hits", got.Count, first.Count)
	}

	// Bypass must execute even with a warm cache.
	_, hdr, _ = post(t, ts.URL+"/v1/search?cache=bypass", req)
	if got := hdr.Get("X-Dita-Cache"); got != "bypass" {
		t.Fatalf("bypass state %q", got)
	}

	// An acked write invalidates; the re-executed answer includes the
	// new member.
	ins := ingestRequest{ID: 100001, Points: rawPoints(q.Points)}
	if status, _, body := post(t, ts.URL+"/v1/ingest", ins); status != http.StatusOK {
		t.Fatalf("ingest: %d %s", status, body)
	}
	status, hdr, body = post(t, ts.URL+"/v1/search", req)
	if status != http.StatusOK || hdr.Get("X-Dita-Cache") != "miss" {
		t.Fatalf("post-ingest query must re-execute: status=%d cache=%q", status, hdr.Get("X-Dita-Cache"))
	}
	after := decodeQuery(t, body)
	if after.Count != first.Count+1 {
		t.Fatalf("post-ingest hits = %d, want %d", after.Count, first.Count+1)
	}

	// Delete invalidates again and the answer shrinks back.
	status, _, body = post(t, ts.URL+"/v1/delete", deleteRequest{ID: 100001})
	if status != http.StatusOK {
		t.Fatalf("delete: %d %s", status, body)
	}
	var wr writeResponse
	if err := json.Unmarshal(body, &wr); err != nil || !wr.OK || wr.Existed == nil || !*wr.Existed {
		t.Fatalf("delete response %s (err %v)", body, err)
	}
	_, hdr, body = post(t, ts.URL+"/v1/search", req)
	if hdr.Get("X-Dita-Cache") != "miss" {
		t.Fatalf("post-delete query served from cache")
	}
	if got := decodeQuery(t, body); got.Count != first.Count {
		t.Fatalf("post-delete hits = %d, want %d", got.Count, first.Count)
	}

	st := srv.CacheStats()
	if st.Hits < 1 || st.Stale < 2 {
		t.Fatalf("cache counters off: %+v", st)
	}
}

func TestServerKNNAndJoin(t *testing.T) {
	ts, _, d := devServer(t, Config{})
	q := d.Trajs[5]

	status, hdr, body := post(t, ts.URL+"/v1/knn", knnRequest{Query: rawPoints(q.Points), K: 5})
	if status != http.StatusOK {
		t.Fatalf("knn: %d %s", status, body)
	}
	if got := decodeQuery(t, body); got.Count != 5 {
		t.Fatalf("knn returned %d hits, want 5", got.Count)
	}
	_, hdr, _ = post(t, ts.URL+"/v1/knn", knnRequest{Query: rawPoints(q.Points), K: 5})
	if hdr.Get("X-Dita-Cache") != "hit" {
		t.Fatal("repeated kNN not cached")
	}

	status, hdr, body = post(t, ts.URL+"/v1/join", joinRequest{Tau: 0.2})
	if status != http.StatusOK {
		t.Fatalf("join: %d %s", status, body)
	}
	if got := decodeQuery(t, body); got.Count == 0 {
		t.Fatal("self-join returned no pairs")
	}
	_, hdr, _ = post(t, ts.URL+"/v1/join", joinRequest{Tau: 0.2})
	if hdr.Get("X-Dita-Cache") != "hit" {
		t.Fatal("repeated self-join not cached")
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	ts, _, d := devServer(t, Config{})
	q := rawPoints(d.Trajs[0].Points)

	cases := []struct {
		path string
		body any
		want int
	}{
		{"/v1/search", searchRequest{Query: q, Tau: -1}, http.StatusBadRequest},
		{"/v1/search", searchRequest{Query: q[:1], Tau: 0.5}, http.StatusBadRequest},
		{"/v1/knn", knnRequest{Query: q, K: 0}, http.StatusBadRequest},
		{"/v1/join", joinRequest{Tau: -2}, http.StatusBadRequest},
		{"/v1/ingest", ingestRequest{ID: 1, Points: q[:1]}, http.StatusBadRequest},
		{"/v1/join", joinRequest{Right: "other", Tau: 0.2}, http.StatusInternalServerError}, // engine backend: self-join only
	}
	for _, tc := range cases {
		if status, _, body := post(t, ts.URL+tc.path, tc.body); status != tc.want {
			t.Errorf("%s %+v: status %d (%s), want %d", tc.path, tc.body, status, body, tc.want)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on query endpoint: %d", resp.StatusCode)
	}

	// Unknown fields are rejected — catches silently-ignored typos like
	// "thau".
	raw := []byte(`{"query":[[0,0],[1,1]],"thau":0.5}`)
	r2, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d", r2.StatusCode)
	}
}

func TestServerHealthEndpoints(t *testing.T) {
	ts, _, _ := devServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
}

// blockingBackend wraps EngineBackend-free fakes for shed/backlog tests.
type fakeBackend struct {
	searchFn  func(ctx context.Context, q []geom.Point, tau float64) ([]Hit, error)
	ingestFn  func(ctx context.Context, t *traj.T) error
	epochFn   func() (EpochView, error)
	touchedFn func() ([]int, error)
}

func (f *fakeBackend) Search(ctx context.Context, q []geom.Point, tau float64) ([]Hit, error) {
	if f.searchFn != nil {
		return f.searchFn(ctx, q, tau)
	}
	return nil, nil
}
func (f *fakeBackend) KNN(context.Context, []geom.Point, int) ([]Hit, error)     { return nil, nil }
func (f *fakeBackend) Join(context.Context, string, float64) ([]JoinPair, error) { return nil, nil }
func (f *fakeBackend) Ingest(ctx context.Context, t *traj.T) error {
	if f.ingestFn != nil {
		return f.ingestFn(ctx, t)
	}
	return nil
}
func (f *fakeBackend) Delete(context.Context, int) (bool, error) { return false, nil }
func (f *fakeBackend) Epochs() (EpochView, error) {
	if f.epochFn != nil {
		return f.epochFn()
	}
	return EpochView{Parts: []uint64{0}}, nil
}
func (f *fakeBackend) Touched([]geom.Point, float64) ([]int, error) {
	if f.touchedFn != nil {
		return f.touchedFn()
	}
	return nil, nil
}
func (f *fakeBackend) Ready() error { return nil }

// The cache dependency set must be computed after the epoch snapshot,
// not before admission: if a partition's MBR grows while the request
// waits at the gate, a touched set from before the growth paired with
// a Bounds epoch from after it would let later non-growing writes to
// the newly relevant partition pass validation — a stale hit. The fake
// backend emulates exactly that interleaving: the first Touched call
// (pre-gate, cost prediction) sees {0}, every later one (post-growth)
// sees {0, 1}, and Epochs always reports the post-growth Bounds.
func TestServerNoStaleHitWhenBoundsGrowDuringAdmission(t *testing.T) {
	var touchedCalls atomic.Int32
	var mu sync.Mutex
	parts := []uint64{5, 5}
	fb := &fakeBackend{
		searchFn: func(context.Context, []geom.Point, float64) ([]Hit, error) {
			return []Hit{{ID: 1}}, nil
		},
		touchedFn: func() ([]int, error) {
			if touchedCalls.Add(1) == 1 {
				return []int{0}, nil // pre-growth view
			}
			return []int{0, 1}, nil // partition 1 grew into relevance
		},
		epochFn: func() (EpochView, error) {
			mu.Lock()
			defer mu.Unlock()
			return EpochView{Bounds: 1, Parts: append([]uint64{}, parts...)}, nil
		},
	}
	s, err := New(Config{Backend: fb, Dataset: "trips", Measure: "DTW"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := searchRequest{Query: [][2]float64{{0, 0}, {1, 1}}, Tau: 0.5}
	if status, hdr, body := post(t, ts.URL+"/v1/search", req); status != http.StatusOK || hdr.Get("X-Dita-Cache") != "miss" {
		t.Fatalf("first query: %d %q %s", status, hdr.Get("X-Dita-Cache"), body)
	}
	// A non-growing write to the newly relevant partition 1. The entry
	// must depend on it (touched computed after the snapshot) and die.
	mu.Lock()
	parts[1]++
	mu.Unlock()
	if status, hdr, _ := post(t, ts.URL+"/v1/search", req); status != http.StatusOK || hdr.Get("X-Dita-Cache") == "hit" {
		t.Fatalf("stale hit: write to a post-growth-relevant partition did not invalidate (state %q)", hdr.Get("X-Dita-Cache"))
	}
}

// A waiter that joins an in-flight execution AFTER a write has been
// acked must not be handed the flight's pre-write answer: coalesced
// results are validated against live epochs like cache entries, and a
// stale flight re-executes for the late joiner (read-your-writes).
func TestServerCoalescedWaiterRevalidates(t *testing.T) {
	var epoch atomic.Uint64
	var calls atomic.Int32
	leaderIn := make(chan struct{}, 1)
	release := make(chan struct{})
	fb := &fakeBackend{
		searchFn: func(ctx context.Context, _ []geom.Point, _ float64) ([]Hit, error) {
			if calls.Add(1) == 1 {
				leaderIn <- struct{}{}
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return []Hit{{ID: 1}}, nil // answer from before the write
			}
			return []Hit{{ID: 2}}, nil // answer including the write
		},
		epochFn: func() (EpochView, error) {
			return EpochView{Parts: []uint64{epoch.Load()}}, nil
		},
	}
	s, err := New(Config{Backend: fb, Dataset: "trips", Measure: "DTW"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := searchRequest{Query: [][2]float64{{0, 0}, {1, 1}}, Tau: 0.5}
	key := Key{Op: OpSearch, Measure: "DTW", Tau: 0.5, QHash: HashQuery([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}})}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // leader: snapshots epoch 0, blocks mid-execution
		defer wg.Done()
		status, _, body := post(t, ts.URL+"/v1/search", req)
		if status != http.StatusOK {
			t.Errorf("leader: %d %s", status, body)
		}
	}()
	<-leaderIn
	epoch.Add(1) // an acked write lands while the flight is in progress

	waiterDone := make(chan struct{})
	var waiterState string
	var waiterHits []Hit
	go func() { // late joiner: its request begins after the write
		defer close(waiterDone)
		status, hdr, body := post(t, ts.URL+"/v1/search", req)
		if status != http.StatusOK {
			t.Errorf("waiter: %d %s", status, body)
			return
		}
		waiterState = hdr.Get("X-Dita-Cache")
		waiterHits = decodeQuery(t, body).Hits
	}()
	// Hold the flight open until the waiter has actually joined it, so
	// the coalesced path (not a fresh leadership) is exercised.
	for {
		s.flights.mu.Lock()
		f := s.flights.flights[key]
		w := 0
		if f != nil {
			w = f.waiters
		}
		s.flights.mu.Unlock()
		if w >= 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	<-waiterDone

	if waiterState == "coalesced" {
		t.Fatalf("stale flight result served as coalesced")
	}
	if len(waiterHits) != 1 || waiterHits[0].ID != 2 {
		t.Fatalf("waiter got pre-write answer: %+v (state %q)", waiterHits, waiterState)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("backend executed %d times, want 2 (leader + revalidating waiter)", got)
	}
}

// Saturating the cost budget sheds with a typed 429 + Retry-After
// while the in-flight query is unaffected.
func TestServerShedsWith429(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	fb := &fakeBackend{
		searchFn: func(ctx context.Context, _ []geom.Point, _ float64) ([]Hit, error) {
			started <- struct{}{}
			select {
			case <-release:
				return []Hit{{ID: 1}}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
	s, err := New(Config{
		Backend: fb, Dataset: "trips", Measure: "DTW",
		CostBudgetUS: 1, DefaultCostUS: 1000, // any second query exceeds the budget
		MaxQueue: 0, QueueTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, _, body := post(t, ts.URL+"/v1/search", searchRequest{Query: [][2]float64{{0, 0}, {1, 1}}, Tau: 0.5})
		if status != http.StatusOK {
			t.Errorf("in-flight query failed: %d %s", status, body)
		}
	}()
	<-started // the first query holds the whole budget

	status, hdr, body := post(t, ts.URL+"/v1/search", searchRequest{Query: [][2]float64{{2, 2}, {3, 3}}, Tau: 0.5})
	if status != http.StatusTooManyRequests {
		t.Fatalf("expected 429 shed, got %d %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.RetryAfterMS <= 0 {
		t.Fatalf("shed response not typed: %s", body)
	}
	close(release)
	wg.Wait()
}

// Ingest backpressure (delta backlog) maps to 503 + Retry-After,
// distinct from the query path's 429, and the shared retry helper
// spins until the pressure clears.
func TestServerIngestBacklog503(t *testing.T) {
	var fails int32
	var mu sync.Mutex
	fb := &fakeBackend{
		ingestFn: func(context.Context, *traj.T) error {
			mu.Lock()
			defer mu.Unlock()
			if fails > 0 {
				fails--
				return fmt.Errorf("worker 2: %w", core.ErrDeltaBacklog)
			}
			return nil
		},
	}
	s, err := New(Config{Backend: fb, Dataset: "trips", Measure: "DTW"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mu.Lock()
	fails = 2
	mu.Unlock()
	req := ingestRequest{ID: 5, Points: [][2]float64{{0, 0}, {1, 1}}}
	status, hdr, body := post(t, ts.URL+"/v1/ingest", req)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("backlogged ingest: %d %s, want 503", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// The jittered-backoff helper retries through the remaining failure.
	retries, err := RetryOverloaded(context.Background(), Backoff{Base: time.Millisecond, Seed: 1}, func() error {
		status, _, _ := post(t, ts.URL+"/v1/ingest", req)
		switch status {
		case http.StatusOK:
			return nil
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			return core.ErrDeltaBacklog
		default:
			return fmt.Errorf("ingest status %d", status)
		}
	})
	if err != nil {
		t.Fatalf("retry helper: %v", err)
	}
	if retries != 1 {
		t.Fatalf("retries = %d, want 1", retries)
	}
}

// TestEngineBackendCacheTouchedPartitions: under the engine backend a
// cached search depends only on the partitions global pruning could not
// exclude. A write to another partition that stays inside its boxes leaves
// the answer a hit; a write that grows that partition's boxes makes it
// stale, since growth can make the partition relevant.
func TestEngineBackendCacheTouchedPartitions(t *testing.T) {
	ts, srv, d := devServer(t, Config{})
	e := srv.cfg.Backend.(*EngineBackend).E
	q, tau := d.Trajs[3], 0.05
	req := searchRequest{Query: rawPoints(q.Points), Tau: tau}
	touched := map[int]bool{}
	for _, pid := range e.RelevantPartitions(q.Points, tau) {
		touched[pid] = true
	}
	var other *traj.T // a member of a partition the search does not touch
	for pid, p := range e.Partitions() {
		if !touched[pid] && !p.Retired() && len(p.Trajs) > 0 {
			other = p.Trajs[0]
			break
		}
	}
	if other == nil {
		t.Fatal("every partition is touched; the test needs a pruned one")
	}
	search := func(label, want string) queryResponse {
		t.Helper()
		status, hdr, body := post(t, ts.URL+"/v1/search", req)
		if status != http.StatusOK {
			t.Fatalf("%s: %d %s", label, status, body)
		}
		if got := hdr.Get("X-Dita-Cache"); got != want {
			t.Fatalf("%s: cache %q, want %q", label, got, want)
		}
		return decodeQuery(t, body)
	}
	first := search("first search", "miss")
	search("repeat", "hit")

	// An upsert of other with its own points: a write to its partition
	// that grows no box.
	if status, _, body := post(t, ts.URL+"/v1/ingest", ingestRequest{ID: other.ID, Points: rawPoints(other.Points)}); status != http.StatusOK {
		t.Fatalf("ingest: %d %s", status, body)
	}
	if got := search("after a write to an untouched partition", "hit"); got.Count != first.Count {
		t.Fatalf("cached answer has %d hits, first had %d", got.Count, first.Count)
	}

	// The same member moved far outside its partition's boxes.
	far := make([]geom.Point, len(other.Points))
	for i, p := range other.Points {
		far[i] = geom.Point{X: p.X + 50, Y: p.Y + 50}
	}
	if status, _, body := post(t, ts.URL+"/v1/ingest", ingestRequest{ID: other.ID, Points: rawPoints(far)}); status != http.StatusOK {
		t.Fatalf("ingest: %d %s", status, body)
	}
	if got := search("after a write that grew an untouched partition", "miss"); got.Count != first.Count {
		t.Fatalf("re-executed answer has %d hits, first had %d", got.Count, first.Count)
	}
}
