// Command dita-serve is the long-lived HTTP serving layer over DITA:
// a JSON API for search/kNN/join/ingest/delete with result caching
// (invalidated by ingest watermarks), request coalescing, and
// cost-based load shedding, plus the obs metrics/health mux.
//
// Server mode (default) fronts either an in-process engine (-dev) or
// a network-mode cluster (-spawn N loopback workers, or -workers
// addr,... for an existing one):
//
//	dita-serve -listen 127.0.0.1:8090 -spawn 2 -gen beijing:2000
//	curl -s localhost:8090/v1/search -d '{"query":[[116.3,39.9],[116.4,40.0]],"tau":0.4}'
//
// Drive mode (-drive URL) is the load generator and SLO checker the
// soak harness uses: it offers a fixed mixed query/write load, samples
// cache hits against bypass queries (stale detection), and writes a
// JSON report with qps/cache-hit/shed/latency percentiles. Exit code
// 1 means the SLO was breached, a stale hit was found, or requests
// failed in untyped ways (the overload contract is typed 429/503,
// never a timeout pile-up).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dita/internal/core"
	"dita/internal/dnet"
	"dita/internal/gen"
	"dita/internal/geom"
	"dita/internal/obs"
	"dita/internal/serve"
	"dita/internal/traj"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:8090", "address to serve HTTP on")
		dev     = flag.Bool("dev", false, "single-process dev mode: in-process core.Engine instead of a cluster")
		spawn   = flag.Int("spawn", 0, "spawn N loopback workers in-process")
		workers = flag.String("workers", "", "comma-separated worker addresses of an existing cluster")
		genSpec = flag.String("gen", "beijing:2000", "dataset preset:size to generate and dispatch")
		seed    = flag.Int64("seed", 42, "generator seed")
		dataset = flag.String("dataset", "trips", "dataset name")
		measure = flag.String("measure", "DTW", "similarity measure (DTW, Frechet, EDR, LCSS, ERP)")

		cacheEntries = flag.Int("cache-entries", 4096, "result cache entry cap (< 0 disables)")
		cacheBytes   = flag.Int("cache-bytes", 64<<20, "result cache byte cap")
		budgetUS     = flag.Int64("cost-budget-us", 0, "concurrent predicted-cost budget in µs (0 disables shedding)")
		maxQueue     = flag.Int("max-queue", 64, "admission queue length beyond the budget")
		queueTimeout = flag.Duration("queue-timeout", time.Second, "max admission queue wait")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "per-request timeout")

		drive    = flag.String("drive", "", "drive mode: base URL of a dita-serve to load-test")
		duration = flag.Duration("duration", 10*time.Second, "drive: how long to offer load")
		rate     = flag.Int("rate", 200, "drive: offered load in requests/second")
		mix      = flag.String("mix", "search=55,knn=25,join=2,ingest=13,delete=5", "drive: op mix in percent")
		pool     = flag.Int("queries", 8, "drive: distinct query pool size (small = high repeat rate)")
		tau      = flag.Float64("tau", 0.4, "drive: search/join threshold")
		k        = flag.Int("k", 8, "drive: kNN k")
		verify   = flag.Float64("verify", 0.5, "drive: fraction of cache hits re-checked against a bypass query")
		sloP99   = flag.Float64("slo-p99-ms", 0, "drive: fail when served p99 exceeds this (0 disables)")
		minShed  = flag.Int("expect-shed", -1, "drive: require at least this many typed sheds (-1 disables; use in overload phases)")
		report   = flag.String("report", "", "drive: write the JSON report here (default stdout only)")
	)
	flag.Parse()

	if *drive != "" {
		os.Exit(runDrive(driveConfig{
			base: strings.TrimRight(*drive, "/"), duration: *duration, rate: *rate,
			mix: *mix, pool: *pool, tau: *tau, k: *k, verify: *verify,
			sloP99: *sloP99, minShed: *minShed, report: *report,
			genSpec: *genSpec, seed: *seed, dataset: *dataset,
		}))
	}
	os.Exit(runServer(serverConfig{
		listen: *listen, dev: *dev, spawn: *spawn, workers: *workers,
		genSpec: *genSpec, seed: *seed, dataset: *dataset, measure: *measure,
		cacheEntries: *cacheEntries, cacheBytes: *cacheBytes,
		budgetUS: *budgetUS, maxQueue: *maxQueue, queueTimeout: *queueTimeout,
		reqTimeout: *reqTimeout,
	}))
}

// --- server mode ---

type serverConfig struct {
	listen, workers, genSpec, dataset, measure string
	dev                                        bool
	spawn                                      int
	seed                                       int64
	cacheEntries, cacheBytes, maxQueue         int
	budgetUS                                   int64
	queueTimeout, reqTimeout                   time.Duration
}

func generate(spec string, seed int64) (*traj.Dataset, error) {
	parts := strings.SplitN(spec, ":", 2)
	n := 2000
	if len(parts) == 2 {
		if v, err := strconv.Atoi(parts[1]); err == nil {
			n = v
		}
	}
	switch parts[0] {
	case "beijing":
		return gen.Generate(gen.BeijingLike(n, seed)), nil
	case "chengdu":
		return gen.Generate(gen.ChengduLike(n, seed)), nil
	case "osm":
		return gen.Generate(gen.OSMLike(n, seed)), nil
	}
	return nil, fmt.Errorf("unknown preset %q", parts[0])
}

func runServer(cfg serverConfig) int {
	data, err := generate(cfg.genSpec, cfg.seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dita-serve: %v\n", err)
		return 2
	}
	data.Name = cfg.dataset

	var backend serve.Backend
	var closers []func()
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()

	switch {
	case cfg.dev:
		if err := devMeasureSupported(cfg.measure); err != nil {
			fmt.Fprintf(os.Stderr, "dita-serve: %v\n", err)
			return 2
		}
		e, err := core.NewEngine(data, core.DefaultOptions())
		if err != nil {
			fmt.Fprintf(os.Stderr, "dita-serve: build engine: %v\n", err)
			return 1
		}
		if _, err := e.EnableIngest(core.IngestConfig{}); err != nil {
			fmt.Fprintf(os.Stderr, "dita-serve: enable ingest: %v\n", err)
			return 1
		}
		backend = &serve.EngineBackend{E: e, Dataset: cfg.dataset}
		fmt.Printf("dita-serve: dev mode, %d trajectories in-process\n", data.Len())
	default:
		var addrs []string
		if cfg.spawn > 0 {
			for i := 0; i < cfg.spawn; i++ {
				w := dnet.NewWorker()
				addr, err := w.Serve("127.0.0.1:0")
				if err != nil {
					fmt.Fprintf(os.Stderr, "dita-serve: spawn worker: %v\n", err)
					return 1
				}
				closers = append(closers, func() { w.Close() })
				addrs = append(addrs, addr)
			}
			fmt.Printf("dita-serve: spawned %d loopback workers\n", cfg.spawn)
		} else if cfg.workers != "" {
			addrs = strings.Split(cfg.workers, ",")
		} else {
			fmt.Fprintln(os.Stderr, "dita-serve: need -dev, -spawn N, or -workers addr,...")
			return 2
		}
		ncfg := dnet.DefaultNetConfig()
		ncfg.Measure.Name = cfg.measure
		c, err := dnet.Connect(addrs, ncfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dita-serve: %v\n", err)
			return 1
		}
		closers = append(closers, func() { c.Close() })
		start := time.Now()
		if err := c.Dispatch(cfg.dataset, data); err != nil {
			fmt.Fprintf(os.Stderr, "dita-serve: dispatch: %v\n", err)
			return 1
		}
		fmt.Printf("dita-serve: dispatched %d trajectories across %d workers in %v\n",
			data.Len(), len(addrs), time.Since(start).Round(time.Millisecond))
		backend = &serve.CoordBackend{C: c, Dataset: cfg.dataset}
	}

	reg := obs.New()
	srv, err := serve.New(serve.Config{
		Backend: backend, Dataset: cfg.dataset, Measure: cfg.measure,
		CacheEntries: cfg.cacheEntries, CacheBytes: cfg.cacheBytes,
		CostBudgetUS: cfg.budgetUS, MaxQueue: cfg.maxQueue,
		QueueTimeout: cfg.queueTimeout, RequestTimeout: cfg.reqTimeout,
		Obs: reg,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dita-serve: %v\n", err)
		return 1
	}
	hs := &http.Server{Addr: cfg.listen, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("dita-serve: listening on http://%s (endpoints: /v1/{search,knn,join,ingest,delete}, /metrics, /healthz, /readyz)\n", cfg.listen)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "dita-serve: %v\n", err)
		return 1
	case s := <-sig:
		fmt.Printf("dita-serve: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "dita-serve: shutdown: %v\n", err)
			return 1
		}
		st := srv.CacheStats()
		fmt.Printf("dita-serve: shut down (cache: %d hits, %d misses, %d stale-invalidated, %d evicted)\n",
			st.Hits, st.Misses, st.Stale, st.Evicted)
		return 0
	}
}

func devMeasureSupported(name string) error {
	switch strings.ToUpper(name) {
	case "DTW":
		return nil
	}
	return fmt.Errorf("dev mode supports -measure DTW (got %q); use cluster mode for others", name)
}

// --- drive mode ---

type driveConfig struct {
	base, mix, report, genSpec, dataset string
	duration                            time.Duration
	rate, pool, k, minShed              int
	tau, verify, sloP99                 float64
	seed                                int64
}

// driveReport is the SLO/cache/shed summary the soak harness consumes.
type driveReport struct {
	DurationS   float64 `json:"duration_s"`
	Offered     int64   `json:"offered"`
	Completed   int64   `json:"completed"`
	QPS         float64 `json:"qps"`
	CacheHits   int64   `json:"cache_hits"`
	CacheHitPct float64 `json:"cache_hit_pct"`
	Coalesced   int64   `json:"coalesced"`
	Shed        int64   `json:"shed"`
	ShedPct     float64 `json:"shed_pct"`
	Backlog503  int64   `json:"backlog_503"`
	Untyped     int64   `json:"untyped_failures"`
	HitsChecked int64   `json:"hits_checked"`
	StaleHits   int64   `json:"stale_hits"`
	P50MS       float64 `json:"p50_served_ms"`
	P99MS       float64 `json:"p99_served_ms"`
	SLOP99MS    float64 `json:"slo_p99_ms,omitempty"`
	SLOOK       bool    `json:"slo_ok"`
}

type opKind int

const (
	opSearch opKind = iota
	opKNN
	opJoin
	opIngest
	opDelete
)

func parseMix(spec string) ([100]opKind, error) {
	var table [100]opKind
	names := map[string]opKind{"search": opSearch, "knn": opKNN, "join": opJoin, "ingest": opIngest, "delete": opDelete}
	i, total := 0, 0
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return table, fmt.Errorf("bad mix element %q", part)
		}
		kind, ok := names[kv[0]]
		if !ok {
			return table, fmt.Errorf("unknown op %q", kv[0])
		}
		pct, err := strconv.Atoi(kv[1])
		if err != nil || pct < 0 {
			return table, fmt.Errorf("bad percentage %q", kv[1])
		}
		total += pct
		for n := 0; n < pct && i < 100; n++ {
			table[i] = kind
			i++
		}
	}
	if total != 100 {
		return table, fmt.Errorf("mix percentages sum to %d, want 100", total)
	}
	return table, nil
}

func runDrive(cfg driveConfig) int {
	table, err := parseMix(cfg.mix)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dita-serve -drive: %v\n", err)
		return 2
	}
	data, err := generate(cfg.genSpec, cfg.seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dita-serve -drive: %v\n", err)
		return 2
	}
	queries := gen.Queries(data, cfg.pool, cfg.seed+1)
	extra := gen.Generate(gen.BeijingLike(256, cfg.seed+2))

	client := &http.Client{Timeout: 5 * time.Second}
	var (
		mu        sync.Mutex
		rep       driveReport
		latencies []float64
		rng       = rand.New(rand.NewSource(cfg.seed + 3))
		rngMu     sync.Mutex
	)
	record := func(f func(*driveReport)) {
		mu.Lock()
		f(&rep)
		mu.Unlock()
	}

	postOnce := func(path string, body any) (int, string, queryResponse, error) {
		raw, _ := json.Marshal(body)
		resp, err := client.Post(cfg.base+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			return 0, "", queryResponse{}, err
		}
		defer resp.Body.Close()
		var qr queryResponse
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		_ = json.Unmarshal(b, &qr)
		return resp.StatusCode, resp.Header.Get("X-Dita-Cache"), qr, nil
	}

	doOp := func(kind opKind, i int) {
		rngMu.Lock()
		qi := rng.Intn(len(queries))
		sample := rng.Float64() < cfg.verify
		rngMu.Unlock()
		q := queries[qi]
		var path string
		var body any
		switch kind {
		case opSearch:
			path, body = "/v1/search", searchBody{Query: rawPts(q.Points), Tau: cfg.tau}
		case opKNN:
			path, body = "/v1/knn", knnBody{Query: rawPts(q.Points), K: cfg.k}
		case opJoin:
			path, body = "/v1/join", joinBody{Tau: cfg.tau / 2}
		case opIngest:
			tr := extra.Trajs[i%len(extra.Trajs)]
			path, body = "/v1/ingest", ingestBody{ID: tr.ID + 500000, Points: rawPts(tr.Points)}
		case opDelete:
			tr := extra.Trajs[i%len(extra.Trajs)]
			path, body = "/v1/delete", deleteBody{ID: tr.ID + 500000}
		}
		start := time.Now()
		status, state, qr, err := postOnce(path, body)
		elapsed := time.Since(start)
		if err != nil {
			record(func(r *driveReport) { r.Untyped++ })
			return
		}
		switch status {
		case http.StatusOK:
			record(func(r *driveReport) {
				r.Completed++
				if state == "hit" {
					r.CacheHits++
				}
				if state == "coalesced" {
					r.Coalesced++
				}
			})
			mu.Lock()
			latencies = append(latencies, float64(elapsed.Microseconds())/1000)
			mu.Unlock()
		case http.StatusTooManyRequests:
			record(func(r *driveReport) { r.Shed++ })
		case http.StatusServiceUnavailable:
			record(func(r *driveReport) { r.Backlog503++ })
		default:
			record(func(r *driveReport) { r.Untyped++ })
		}
		// Stale detection: re-check sampled hit AND coalesced responses
		// against a bypass query (a coalesced answer fills the cache, so
		// the re-query exercises the same epoch snapshot the waiter was
		// served from). A write can land between the pair, so a mismatch
		// is retried; only a persistent mismatch counts as stale.
		if status == http.StatusOK && (state == "hit" || state == "coalesced") && (kind == opSearch || kind == opKNN) && sample {
			record(func(r *driveReport) { r.HitsChecked++ })
			stale := true
			for attempt := 0; attempt < 3 && stale; attempt++ {
				cs, cstate, cached, err1 := postOnce(path, body)
				bs, _, live, err2 := postOnce(path+"?cache=bypass", body)
				if err1 != nil || err2 != nil || cs != http.StatusOK || bs != http.StatusOK {
					stale = false // overload/transport noise, not staleness evidence
					break
				}
				if cstate != "hit" || hitsFingerprint(cached.Hits) == hitsFingerprint(live.Hits) {
					stale = false
				}
			}
			if stale {
				record(func(r *driveReport) { r.StaleHits++ })
			}
			_ = qr
		}
	}

	fmt.Printf("dita-serve -drive: offering %d req/s for %v against %s (mix %s)\n",
		cfg.rate, cfg.duration, cfg.base, cfg.mix)
	interval := time.Second / time.Duration(cfg.rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
	deadline := time.After(cfg.duration)
	var wg sync.WaitGroup
	start := time.Now()
	i := 0
loop:
	for {
		select {
		case <-ticker.C:
			rep.Offered++
			i++
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rngMu.Lock()
				kind := table[rng.Intn(100)]
				rngMu.Unlock()
				doOp(kind, i)
			}(i)
		case <-deadline:
			break loop
		}
	}
	ticker.Stop()
	wg.Wait()
	elapsed := time.Since(start)

	mu.Lock()
	rep.DurationS = elapsed.Seconds()
	rep.QPS = float64(rep.Completed) / elapsed.Seconds()
	if rep.Completed > 0 {
		rep.CacheHitPct = 100 * float64(rep.CacheHits) / float64(rep.Completed)
	}
	if rep.Offered > 0 {
		rep.ShedPct = 100 * float64(rep.Shed+rep.Backlog503) / float64(rep.Offered)
	}
	sort.Float64s(latencies)
	rep.P50MS = percentile(latencies, 0.50)
	rep.P99MS = percentile(latencies, 0.99)
	rep.SLOP99MS = cfg.sloP99
	rep.SLOOK = cfg.sloP99 <= 0 || rep.P99MS <= cfg.sloP99
	out, _ := json.MarshalIndent(rep, "", "  ")
	mu.Unlock()

	fmt.Println(string(out))
	if cfg.report != "" {
		if err := os.WriteFile(cfg.report, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dita-serve -drive: write report: %v\n", err)
			return 1
		}
	}

	fail := false
	if rep.StaleHits > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d stale cache hits\n", rep.StaleHits)
		fail = true
	}
	if rep.Untyped > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d untyped failures (overload must be typed 429/503, not timeouts)\n", rep.Untyped)
		fail = true
	}
	if !rep.SLOOK {
		fmt.Fprintf(os.Stderr, "FAIL: p99 %.1fms breaches SLO %.1fms\n", rep.P99MS, cfg.sloP99)
		fail = true
	}
	if cfg.minShed >= 0 && rep.Shed+rep.Backlog503 < int64(cfg.minShed) {
		fmt.Fprintf(os.Stderr, "FAIL: expected >= %d typed sheds, saw %d\n", cfg.minShed, rep.Shed+rep.Backlog503)
		fail = true
	}
	if fail {
		return 1
	}
	return 0
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

func hitsFingerprint(hits []serveHit) string {
	s := make([]string, len(hits))
	for i, h := range hits {
		s[i] = fmt.Sprintf("%d:%.9g", h.ID, h.Distance)
	}
	sort.Strings(s)
	return strings.Join(s, ",")
}

// Wire types mirroring internal/serve's JSON API (kept local so the
// driver exercises the real HTTP contract, not shared structs).
type serveHit struct {
	ID       int     `json:"id"`
	Distance float64 `json:"distance"`
}

type queryResponse struct {
	Hits  []serveHit `json:"hits"`
	Count int        `json:"count"`
	Cache string     `json:"cache"`
}

type searchBody struct {
	Query [][2]float64 `json:"query"`
	Tau   float64      `json:"tau"`
}

type knnBody struct {
	Query [][2]float64 `json:"query"`
	K     int          `json:"k"`
}

type joinBody struct {
	Right string  `json:"right,omitempty"`
	Tau   float64 `json:"tau"`
}

type ingestBody struct {
	ID     int          `json:"id"`
	Points [][2]float64 `json:"points"`
}

type deleteBody struct {
	ID int `json:"id"`
}

func rawPts(ps []geom.Point) [][2]float64 {
	out := make([][2]float64, len(ps))
	for i, p := range ps {
		out[i] = [2]float64{p.X, p.Y}
	}
	return out
}
