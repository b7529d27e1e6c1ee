package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"dita/internal/admit"
	"dita/internal/core"
	"dita/internal/geom"
	"dita/internal/obs"
	"dita/internal/traj"
)

// Config assembles a Server.
type Config struct {
	// Backend executes the queries (required).
	Backend Backend
	// Dataset is the primary dataset name; joins against it are
	// cacheable self-joins.
	Dataset string
	// Measure names the distance measure, part of every cache key.
	Measure string

	// CacheEntries / CacheBytes bound the result cache (defaults 4096
	// entries, 64 MiB; CacheEntries < 0 disables caching).
	CacheEntries int
	CacheBytes   int

	// CostBudgetUS is the predicted cost (µs) allowed to execute
	// concurrently; <= 0 disables load shedding. MaxQueue and
	// QueueTimeout shape the admission queue (see admit.CostPolicy).
	CostBudgetUS int64
	MaxQueue     int
	QueueTimeout time.Duration
	// DefaultCostUS seeds the cost model's prediction for unobserved
	// query shapes (default 2000).
	DefaultCostUS int64

	// RequestTimeout caps one request's total time (default 30s).
	RequestTimeout time.Duration

	// Obs receives metrics; a private registry is created when nil.
	// Health carries extra readiness checks; the server always adds a
	// "backend" check.
	Obs    *obs.Registry
	Health *obs.Health
}

// Server is the HTTP serving layer: cache → coalesce → shed → backend.
type Server struct {
	cfg     Config
	cache   *Cache
	flights *flightGroup
	model   *costModel
	gate    *admit.CostGate
	mux     *http.ServeMux
	met     serveMetrics
}

type serveMetrics struct {
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	coalesced   *obs.Counter
	shed        *obs.Counter
	backlog     *obs.Counter
}

// New builds a Server from the config.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("serve: Config.Backend is required")
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 4096
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	if cfg.Health == nil {
		cfg.Health = obs.NewHealth()
	}
	cfg.Health.SetCheck("backend", cfg.Backend.Ready)
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheEntries, cfg.CacheBytes),
		flights: newFlightGroup(),
		model:   newCostModel(cfg.DefaultCostUS),
		gate: admit.NewCostGate(admit.CostPolicy{
			BudgetUS:     cfg.CostBudgetUS,
			MaxQueue:     cfg.MaxQueue,
			QueueTimeout: cfg.QueueTimeout,
		}),
	}
	r := cfg.Obs
	s.met = serveMetrics{
		cacheHits:   r.Counter("serve_cache_hits_total"),
		cacheMisses: r.Counter("serve_cache_misses_total"),
		coalesced:   r.Counter("serve_coalesced_total"),
		shed:        r.Counter("serve_shed_total"),
		backlog:     r.Counter("serve_backlog_total"),
	}
	r.GaugeFunc("serve_cache_entries", func() int64 { return int64(s.cache.Stats().Entries) })
	r.GaugeFunc("serve_cache_bytes", func() int64 { return int64(s.cache.Stats().Bytes) })
	s.gate.Instrument(r, "serve_admit")

	s.mux = obs.NewMux(r, cfg.Health)
	handle := func(path, name string, h http.HandlerFunc) {
		s.mux.Handle(path, obs.InstrumentHandler(r, name, h))
	}
	handle("/v1/search", "serve_search", s.handleSearch)
	handle("/v1/knn", "serve_knn", s.handleKNN)
	handle("/v1/join", "serve_join", s.handleJoin)
	handle("/v1/ingest", "serve_ingest", s.handleIngest)
	handle("/v1/delete", "serve_delete", s.handleDelete)
	return s, nil
}

// Handler returns the server's HTTP handler: the five /v1 endpoints
// plus the obs mux (/metrics, /healthz, /readyz, pprof, ...).
func (s *Server) Handler() http.Handler { return s.mux }

// CacheStats exposes the result-cache counters (for bench/soak
// reports).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// --- request/response wire types ---

type searchRequest struct {
	Query [][2]float64 `json:"query"`
	Tau   float64      `json:"tau"`
}

type knnRequest struct {
	Query [][2]float64 `json:"query"`
	K     int          `json:"k"`
}

type joinRequest struct {
	Right string  `json:"right"`
	Tau   float64 `json:"tau"`
}

type ingestRequest struct {
	ID     int          `json:"id"`
	Points [][2]float64 `json:"points"`
}

type deleteRequest struct {
	ID int `json:"id"`
}

type queryResponse struct {
	Hits      []Hit      `json:"hits,omitempty"`
	Pairs     []JoinPair `json:"pairs,omitempty"`
	Count     int        `json:"count"`
	Cache     string     `json:"cache"`
	ElapsedUS int64      `json:"elapsed_us"`
}

type writeResponse struct {
	OK      bool  `json:"ok"`
	Existed *bool `json:"existed,omitempty"`
}

type errorResponse struct {
	Error        string `json:"error"`
	RetryAfterMS int    `json:"retry_after_ms,omitempty"`
}

// retryAfter is the hint sent with 429/503 rejections. One second is
// long enough to drain a burst at any realistic budget and short
// enough that clients with the jittered Backoff converge quickly.
const retryAfter = 1 * time.Second

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return false
	}
	body := http.MaxBytesReader(w, r.Body, 8<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func writeError(w http.ResponseWriter, status int, err error) {
	resp := errorResponse{Error: err.Error()}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retryAfter.Seconds())))
		resp.RetryAfterMS = int(retryAfter.Milliseconds())
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(resp)
}

func toPoints(raw [][2]float64) []geom.Point {
	pts := make([]geom.Point, len(raw))
	for i, p := range raw {
		pts[i] = geom.Point{X: p[0], Y: p[1]}
	}
	return pts
}

// --- query path ---

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Query) < 2 || req.Tau < 0 {
		writeError(w, http.StatusBadRequest, errors.New("need query with >= 2 points and tau >= 0"))
		return
	}
	s.runQuery(w, r, OpSearch, req.Tau, 0, "", toPoints(req.Query))
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	var req knnRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Query) < 2 || req.K < 1 {
		writeError(w, http.StatusBadRequest, errors.New("need query with >= 2 points and k >= 1"))
		return
	}
	s.runQuery(w, r, OpKNN, 0, req.K, "", toPoints(req.Query))
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Right == "" {
		req.Right = s.cfg.Dataset
	}
	if req.Tau < 0 {
		writeError(w, http.StatusBadRequest, errors.New("need tau >= 0"))
		return
	}
	s.runQuery(w, r, OpJoin, req.Tau, 0, req.Right, nil)
}

// runQuery is the shared read path: cache lookup, then a coalesced
// execution that passes admission, snapshots epochs, runs the
// backend, feeds the cost model, and fills the cache.
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, op Op, tau float64, k int, right string, q []geom.Point) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	bypass := r.URL.Query().Get("cache") == "bypass"
	// Joins against a different dataset would need that dataset's
	// epochs too; rather than track two epoch streams they are simply
	// never cached.
	cacheable := !bypass && (op != OpJoin || right == s.cfg.Dataset)
	key := Key{Op: op, Right: right, Measure: s.cfg.Measure, Tau: tau, K: k, QHash: HashQuery(q)}
	start := time.Now()

	if cacheable {
		if cur, err := s.cfg.Backend.Epochs(); err == nil {
			if val, ok := s.cache.Get(key, q, cur); ok {
				s.met.cacheHits.Inc()
				s.respond(w, op, val, "hit", start)
				return
			}
		}
		s.met.cacheMisses.Inc()
	}

	exec := func(fctx context.Context) (*execResult, error) {
		// Pre-gate Touched lookup feeds the cost model ONLY. It must
		// not become the cache dependency set: Acquire can queue for
		// up to QueueTimeout, and a write growing a partition's MBR in
		// between would leave us with a post-growth Bounds epoch over a
		// pre-growth touched set — a stale entry that looks fresh.
		var predicted []int
		if op == OpSearch {
			predicted, _ = s.cfg.Backend.Touched(q, tau)
		}
		release, err := s.gate.Acquire(fctx, s.model.predict(op, len(predicted)))
		if err != nil {
			return nil, err
		}
		defer release()
		res := &execResult{}
		// Epoch snapshot BEFORE execution: a write landing after it
		// makes the answer look stale, never fresh. The dependency set
		// is computed AFTER the snapshot — bounds growth in between
		// bumps Bounds and fails validation anyway, and a box that
		// shrank in between (an engine merge, which bumps nothing) is
		// exact over what its partition shows, so the partitions it
		// prunes hold no answer until a write grows it again. A
		// Touched error degrades to nil ("all partitions") — sound,
		// just coarser.
		if res.epochs, err = s.cfg.Backend.Epochs(); err == nil {
			res.epochsOK = true
			if op == OpSearch {
				res.touched, _ = s.cfg.Backend.Touched(q, tau)
			}
		}
		t0 := time.Now()
		var bytes int
		switch op {
		case OpSearch:
			hits, herr := s.cfg.Backend.Search(fctx, q, tau)
			res.val, bytes, err = hits, 32+16*len(hits), herr
		case OpKNN:
			hits, herr := s.cfg.Backend.KNN(fctx, q, k)
			res.val, bytes, err = hits, 32+16*len(hits), herr
		case OpJoin:
			pairs, jerr := s.cfg.Backend.Join(fctx, right, tau)
			res.val, bytes, err = pairs, 32+24*len(pairs), jerr
		}
		if err != nil {
			return nil, err
		}
		s.model.observe(op, len(res.touched), time.Since(t0).Microseconds())
		if cacheable && res.epochsOK {
			s.cache.Put(key, q, res.val, bytes, res.epochs, res.touched)
		}
		return res, nil
	}

	var res *execResult
	var shared bool
	var err error
	if bypass {
		// A bypass request must observe the backend directly — no
		// cache fill, and no coalescing either, or it could be handed
		// a flight that started (and snapshotted its answer) before a
		// write the client has already seen acked.
		res, err = exec(ctx)
	} else {
		var v any
		v, shared, err = s.flights.Do(ctx, key, q, func(fctx context.Context) (any, error) {
			return exec(fctx)
		})
		if err == nil {
			res = v.(*execResult)
		}
		if err == nil && shared && !s.flightCurrent(res) {
			// Read-your-writes for late joiners: the flight snapshotted
			// its answer before this caller's request began (or at
			// least before a write this caller may have seen acked).
			// Exactly like a cache hit, the shared result must be
			// proven current at the live epochs; when it is not — or
			// when it carries no snapshot to check — re-execute
			// uncoalesced and report a plain miss.
			shared = false
			res, err = exec(ctx)
		}
	}
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	state := "miss"
	switch {
	case bypass:
		state = "bypass"
	case shared:
		state = "coalesced"
		s.met.coalesced.Inc()
	}
	s.respond(w, op, res.val, state, start)
}

// execResult is one backend execution's answer plus the epoch evidence
// needed to prove it current later: the snapshot it was computed at
// and the partitions it depends on (nil touched = all partitions).
// The coalescer shares it between waiters; epochsOK is false when the
// epoch snapshot itself failed, in which case nothing can be proven.
type execResult struct {
	val      any
	epochs   EpochView
	epochsOK bool
	touched  []int
}

// flightCurrent reports whether a coalesced flight's result is still
// provably current at the live epochs — the same validation Cache.Get
// applies to a resident entry. Epoch-lookup failure counts as "not
// current": the caller re-executes rather than serve unproven state.
func (s *Server) flightCurrent(res *execResult) bool {
	if !res.epochsOK {
		return false
	}
	cur, err := s.cfg.Backend.Epochs()
	if err != nil {
		return false
	}
	return freshAt(res.epochs, res.touched, cur)
}

func (s *Server) respond(w http.ResponseWriter, op Op, val any, state string, start time.Time) {
	resp := queryResponse{Cache: state, ElapsedUS: time.Since(start).Microseconds()}
	switch op {
	case OpSearch, OpKNN:
		hits, _ := val.([]Hit)
		resp.Hits, resp.Count = hits, len(hits)
	case OpJoin:
		pairs, _ := val.([]JoinPair)
		resp.Pairs, resp.Count = pairs, len(pairs)
	}
	w.Header().Set("X-Dita-Cache", state)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// writeQueryError maps read-path failures: admission shedding is 429
// (the client should retry after backoff — the server is healthy,
// just full), delta backlog is 503 (a replica's ingest pipeline is
// behind; reads that reached the engine don't normally see it, but a
// backend may surface it), timeouts are 504, everything else 500.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, admit.ErrOverloaded):
		s.met.shed.Inc()
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, core.ErrDeltaBacklog):
		s.met.backlog.Inc()
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// --- write path ---

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Points) < 2 {
		writeError(w, http.StatusBadRequest, errors.New("need >= 2 points"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	t := &traj.T{ID: req.ID, Points: toPoints(req.Points)}
	if err := s.cfg.Backend.Ingest(ctx, t); err != nil {
		s.writeIngestError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(writeResponse{OK: true})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req deleteRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	existed, err := s.cfg.Backend.Delete(ctx, req.ID)
	if err != nil {
		s.writeIngestError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(writeResponse{OK: true, Existed: &existed})
}

// writeIngestError maps write-path failures: both overload kinds —
// coordinator admission and the per-partition delta backlog bound —
// are 503 Service Unavailable (the write was durably refused, retry
// after backoff), distinct from the read path's 429.
func (s *Server) writeIngestError(w http.ResponseWriter, err error) {
	switch {
	case IsOverload(err):
		s.met.backlog.Inc()
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}
