// Command dita-net is the network-mode coordinator CLI: it connects to
// running dita-worker processes, dispatches a dataset across them, and
// runs a search/join workload — DITA as an actual multi-process
// distributed system (stdlib net/rpc over TCP).
//
// Usage:
//
//	# terminal 1..3
//	dita-worker -listen 127.0.0.1:7001
//	dita-worker -listen 127.0.0.1:7002
//	dita-worker -listen 127.0.0.1:7003
//
//	# terminal 4
//	dita-net -workers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
//	         -gen beijing:10000 -tau 0.005 -queries 100 -join -knn 10
//
// With -spawn N the workers are started in-process on loopback instead,
// for a one-command demo.
//
// With -ingest N the coordinator streams N mutations (fresh upserts plus
// ~10% deletes) into the dispatched dataset before the query workload —
// against workers started with -snapshot-dir, every mutation is WAL-logged
// on all replicas before it is acked and survives a worker crash.
//
// Query lifecycle flags: -deadline bounds each query (expiry is reported,
// not fatal); -max-concurrent/-max-queue/-queue-timeout enable admission
// control on the coordinator; SIGINT cancels the in-flight query and
// stops the workload. -soak runs a cancelled-query churn workload for the
// given duration instead of the normal benchmark — pair it with workers
// started under -chaos to soak-test the failure paths.
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dita"
	"dita/internal/core"
	"dita/internal/dnet"
	"dita/internal/geom"
	"dita/internal/obs"
	"dita/internal/serve"
	"dita/internal/traj"
)

func main() {
	workersFlag := flag.String("workers", "", "comma-separated worker addresses")
	spawn := flag.Int("spawn", 0, "spawn N in-process loopback workers instead of connecting")
	genSpec := flag.String("gen", "beijing:5000", "dataset preset:count")
	load := flag.String("load", "", "load a CSV dataset instead of generating")
	tau := flag.Float64("tau", 0.005, "similarity threshold")
	queries := flag.Int("queries", 50, "number of search queries")
	doJoin := flag.Bool("join", false, "also run a self-join")
	ingestN := flag.Int("ingest", 0, "stream N trajectory mutations (fresh upserts plus ~10% deletes) into the dispatched dataset before the query workload (0 disables)")
	ingestSkew := flag.Float64("ingest-skew", 0, "fraction of -ingest writes aimed at one hot partition's geometry (0..1), to provoke occupancy skew")
	rebalance := flag.Bool("rebalance", false, "after ingest, run the online STR re-partitioning planner until occupancy skew is within bound")
	rebalanceSkew := flag.Float64("rebalance-skew", 2, "max/mean occupancy ratio the -rebalance planner tolerates before splitting")
	autopilot := flag.Bool("autopilot", false, "run the rebalancing autopilot: a coordinator loop that watches per-partition read costs and occupancy skew and triggers cutovers/replica promotions automatically")
	autopilotInterval := flag.Duration("autopilot-interval", 200*time.Millisecond, "autopilot tick interval")
	querySkew := flag.Float64("query-skew", 0, "fraction of search queries aimed at one hot partition's geometry (0..1), to provoke a read hotspot")
	knnK := flag.Int("knn", 0, "also run the search queries as kNN at this k (0 disables)")
	measureName := flag.String("measure", "DTW", "similarity function")
	seed := flag.Int64("seed", 1, "generation seed")
	replicas := flag.Int("replicas", 2, "partition replication factor (clamped to worker count)")
	allowPartial := flag.Bool("allow-partial", false, "return partial results with a skip report when all replicas of a partition are down")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "worker health-check interval (0 disables)")
	deadline := flag.Duration("deadline", 0, "per-query deadline (0 = none); expiry cancels the query's remaining partition work")
	maxConcurrent := flag.Int("max-concurrent", 0, "admission control: max concurrent queries on this coordinator (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "admission control: queries allowed to wait for a slot beyond -max-concurrent")
	queueTimeout := flag.Duration("queue-timeout", time.Second, "admission control: max wait for a slot before ErrOverloaded")
	soak := flag.Duration("soak", 0, "run a cancelled-query churn workload for this long instead of the benchmark")
	metricsAddr := flag.String("metrics-addr", "", "address to serve /metrics, /metrics.json, /debug/vars, and /debug/pprof on (empty disables)")
	trace := flag.Bool("trace", false, "print the assembled cluster trace of the first search query (and the join)")
	retainPayloads := flag.Bool("retain-payloads", false, "keep raw partition payloads in coordinator memory even when durable snapshots cover them")
	digest := flag.Bool("digest", false, "print an order-independent FNV-1a digest of all search results (for comparing runs, e.g. fresh build vs cold start)")
	verifyPar := flag.Int("verify-parallelism", 0, "verification goroutines per RPC on -spawn'ed workers (0 = all cores, 1 = sequential)")
	flag.Parse()

	// SIGINT/SIGTERM cancel the context every query runs under, so an
	// interrupt aborts the in-flight query (within one verification step)
	// instead of waiting for it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var addrs []string
	var local []*dnet.Worker
	switch {
	case *spawn > 0:
		for i := 0; i < *spawn; i++ {
			w := dnet.NewWorker()
			w.VerifyParallelism = *verifyPar
			addr, err := w.Serve("127.0.0.1:0")
			if err != nil {
				fatal(err)
			}
			local = append(local, w)
			addrs = append(addrs, addr)
		}
		fmt.Printf("spawned %d loopback workers: %s\n", *spawn, strings.Join(addrs, ", "))
	case *workersFlag != "":
		addrs = strings.Split(*workersFlag, ",")
	default:
		fmt.Fprintln(os.Stderr, "dita-net: need -workers addr,... or -spawn N")
		os.Exit(2)
	}
	defer func() {
		for _, w := range local {
			w.Close()
		}
	}()

	cfg := dnet.DefaultNetConfig()
	cfg.Measure.Name = *measureName
	cfg.Replicas = *replicas
	cfg.AllowPartial = *allowPartial
	cfg.Health.Interval = *heartbeat
	cfg.Admission.MaxConcurrent = *maxConcurrent
	cfg.Admission.MaxQueue = *maxQueue
	cfg.Admission.QueueTimeout = *queueTimeout
	cfg.RetainPayloads = *retainPayloads
	var reg *obs.Registry
	var health *obs.Health
	if *metricsAddr != "" {
		reg = obs.New()
		cfg.Obs = reg
		health = obs.NewHealth()
		ln, err := obs.Serve(*metricsAddr, reg, health)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
	}
	if *autopilot {
		if reg == nil {
			// The autopilot's actions are observed through its counters;
			// a registry is required even without -metrics-addr.
			reg = obs.New()
			cfg.Obs = reg
		}
		cfg.Autopilot = dnet.AutopilotConfig{
			Interval: *autopilotInterval,
			Policy:   core.RebalancePolicy{SkewBound: *rebalanceSkew},
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		}
	}
	coord, err := dnet.Connect(addrs, cfg)
	if err != nil {
		fatal(err)
	}
	defer coord.Close()
	health.SetCheck("coordinator", coord.Ready)

	var data *dita.Dataset
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fatal(err)
		}
		data, err = dita.ReadCSV(f, "trips")
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		parts := strings.SplitN(*genSpec, ":", 2)
		n := 5000
		if len(parts) == 2 {
			if v, err := strconv.Atoi(parts[1]); err == nil {
				n = v
			}
		}
		switch parts[0] {
		case "beijing":
			data = dita.Generate(dita.BeijingLike(n, *seed))
		case "chengdu":
			data = dita.Generate(dita.ChengduLike(n, *seed))
		case "osm":
			data = dita.Generate(dita.OSMLike(n, *seed))
		default:
			fatal(fmt.Errorf("unknown preset %q", parts[0]))
		}
	}

	start := time.Now()
	drep, err := coord.DispatchStats("trips", data)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dispatched %d trajectories across %d workers in %v\n",
		data.Len(), len(addrs), time.Since(start).Round(time.Millisecond))
	fmt.Printf("dispatch: %d partitions — %d shipped, %d reused from worker snapshots, %d payloads released\n",
		drep.Partitions, drep.Loads, drep.Reused, drep.PayloadsDropped)
	stats, err := coord.WorkerStats()
	if err != nil {
		fatal(err)
	}
	for i, s := range stats {
		fmt.Printf("  worker %d (%s): %d partitions, %d trajectories, %.1f KB index\n",
			i, addrs[i], s.Partitions, s.Trajs, float64(s.IndexBytes)/1e3)
	}

	if *ingestN > 0 {
		runIngest(ctx, coord, data, *ingestN, *seed, *ingestSkew)
	}

	if *rebalance {
		skewBefore, err := coord.OccupancySkew("trips")
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		steps, converged, err := coord.Rebalance("trips", core.RebalancePolicy{SkewBound: *rebalanceSkew})
		if err != nil {
			fatal(err)
		}
		if !converged {
			fmt.Println("rebalance: planner hit its step budget without converging")
		}
		skewAfter, err := coord.OccupancySkew("trips")
		if err != nil {
			fatal(err)
		}
		moved := 0
		for _, st := range steps {
			moved += st.Trajs
		}
		fmt.Printf("rebalance: occupancy skew %.2f -> %.2f in %d cutover(s), %d trajectories re-cut, %v total\n",
			skewBefore, skewAfter, len(steps), moved, time.Since(start).Round(time.Millisecond))
		for i, st := range steps {
			fmt.Printf("  cutover %d: retired %v -> created %v (%d trajs, %v)\n",
				i, st.Retired, st.Created, st.Trajs, st.Duration.Round(time.Millisecond))
		}
	}

	qs := dita.Queries(data, *queries, *seed+1)
	if *querySkew > 0 {
		skewQueries(qs, data, *querySkew, *seed+2)
	}

	// Warm up BEFORE the measured (and digested) workload: the warmup
	// feeds the read-cost signal until the autopilot takes its first
	// automatic action, so the digest below reflects the post-cutover,
	// post-promotion layout — the differential the soak harness compares
	// against an autopilot-disabled run.
	if *autopilot {
		runAutopilotWarmup(ctx, coord, reg, qs, *tau)
	}

	if *soak > 0 {
		runSoak(ctx, coord, qs, *tau, *soak, *seed)
		return
	}

	start = time.Now()
	totalHits := 0
	skippedParts := 0
	expired := 0
	ran := 0
	var resultDigest uint64
	for i, q := range qs {
		qctx, cancel := queryContext(ctx, *deadline)
		var qstats *dnet.QueryStats
		if *trace && i == 0 {
			qstats = &dnet.QueryStats{Trace: obs.NewTrace("search")}
		}
		hits, rep, err := coord.SearchTraced(qctx, "trips", q, *tau, qstats)
		cancel()
		if qstats != nil && err == nil {
			qstats.Trace.Write(os.Stdout)
			fmt.Printf("  query funnel: %s\n", qstats.Funnel)
		}
		switch {
		case err == nil:
		case ctx.Err() != nil:
			fmt.Println("dita-net: interrupted, stopping workload")
			return
		case errors.Is(err, context.DeadlineExceeded):
			expired++
			continue
		case errors.Is(err, dnet.ErrOverloaded):
			fatal(fmt.Errorf("%w (a serial workload should never queue; lower -queries or raise -max-concurrent)", err))
		default:
			fatal(err)
		}
		ran++
		if rep.Partial() {
			skippedParts += len(rep.Skipped)
		}
		totalHits += len(hits)
		if *digest {
			resultDigest ^= hitsDigest(i, hits)
		}
	}
	elapsed := time.Since(start)
	if skippedParts > 0 {
		fmt.Printf("partial results: %d partition probes skipped (replicas unreachable)\n", skippedParts)
	}
	if expired > 0 {
		fmt.Printf("deadlines: %d/%d queries exceeded -deadline=%v\n", expired, len(qs), *deadline)
	}
	if ran > 0 {
		fmt.Printf("search: %d queries at τ=%g in %v (%.2f ms/query, %.1f results/query)\n",
			ran, *tau, elapsed.Round(time.Millisecond),
			float64(elapsed.Microseconds())/1000/float64(ran),
			float64(totalHits)/float64(ran))
	}
	if *digest {
		fmt.Printf("search digest: %016x (%d queries, %d hits)\n", resultDigest, ran, totalHits)
	}

	if *knnK > 0 {
		start = time.Now()
		totalHits, skippedParts, expired, ran = 0, 0, 0, 0
		for i, q := range qs {
			qctx, cancel := queryContext(ctx, *deadline)
			var qstats *dnet.QueryStats
			if *trace && i == 0 {
				qstats = &dnet.QueryStats{Trace: obs.NewTrace("knn")}
			}
			hits, rep, err := coord.SearchKNNTraced(qctx, "trips", q, *knnK, qstats)
			cancel()
			if qstats != nil && err == nil {
				qstats.Trace.Write(os.Stdout)
				fmt.Printf("  knn funnel: %s\n", qstats.Funnel)
			}
			switch {
			case err == nil:
			case ctx.Err() != nil:
				fmt.Println("dita-net: interrupted, stopping workload")
				return
			case errors.Is(err, context.DeadlineExceeded):
				expired++
				continue
			case errors.Is(err, dnet.ErrOverloaded):
				fatal(fmt.Errorf("%w (a serial workload should never queue; lower -queries or raise -max-concurrent)", err))
			default:
				fatal(err)
			}
			ran++
			if rep.Partial() {
				skippedParts += len(rep.Skipped)
			}
			totalHits += len(hits)
		}
		elapsed := time.Since(start)
		if skippedParts > 0 {
			fmt.Printf("knn: partial results — %d partition probes skipped\n", skippedParts)
		}
		if expired > 0 {
			fmt.Printf("knn deadlines: %d/%d queries exceeded -deadline=%v\n", expired, len(qs), *deadline)
		}
		if ran > 0 {
			fmt.Printf("knn: %d queries at k=%d in %v (%.2f ms/query, %.1f results/query)\n",
				ran, *knnK, elapsed.Round(time.Millisecond),
				float64(elapsed.Microseconds())/1000/float64(ran),
				float64(totalHits)/float64(ran))
		}
	}

	if *doJoin {
		start = time.Now()
		jctx, cancel := queryContext(ctx, *deadline)
		var qstats *dnet.QueryStats
		if *trace {
			qstats = &dnet.QueryStats{Trace: obs.NewTrace("join")}
		}
		pairs, rep, err := coord.JoinTraced(jctx, "trips", "trips", *tau, qstats)
		cancel()
		if qstats != nil && err == nil {
			qstats.Trace.Write(os.Stdout)
			fmt.Printf("  join funnel: %s\n", qstats.Funnel)
		}
		switch {
		case err == nil:
		case ctx.Err() != nil:
			fmt.Println("dita-net: interrupted, stopping workload")
			return
		case errors.Is(err, context.DeadlineExceeded):
			fmt.Printf("join: deadline %v exceeded\n", *deadline)
			return
		default:
			fatal(err)
		}
		if rep.Partial() {
			fmt.Printf("join: partial — %d partition probes skipped\n", len(rep.Skipped))
		}
		fmt.Printf("self-join at τ=%g: %d pairs in %v\n",
			*tau, len(pairs), time.Since(start).Round(time.Millisecond))
	}
}

// hitsDigest folds one query's results into an order-independent FNV-1a
// word: per-hit hashes over (query index, id, distance bits) are XORed, so
// the digest is insensitive to merge order but sensitive to any missing,
// extra, or numerically different answer. Two runs over the same dataset
// and queries — e.g. a fresh build and a cold start from snapshots — must
// print identical digests.
func hitsDigest(qIdx int, hits []dnet.SearchHit) uint64 {
	var acc uint64
	var buf [24]byte
	for _, h := range hits {
		binary.LittleEndian.PutUint64(buf[0:], uint64(qIdx))
		binary.LittleEndian.PutUint64(buf[8:], uint64(h.ID))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(h.Distance))
		f := fnv.New64a()
		f.Write(buf[:])
		acc ^= f.Sum64()
	}
	return acc
}

// skewQueries aims the given fraction of the query workload at the hot
// member's geometry — the same geometry -ingest-skew concentrates — with
// a per-query jitter so the queries stay distinct. A skewed read
// workload drives one partition's verify cost up, the signal the
// autopilot's cost-aware planner and replica promotion act on. The
// rewrite is deterministic in the seed, so two runs (autopilot on and
// off) see byte-identical query sets.
func skewQueries(qs []*traj.T, data *dita.Dataset, frac float64, seed int64) {
	if data.Len() == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	hot := data.Trajs[0].Points
	for i := range qs {
		if rng.Float64() >= frac {
			continue
		}
		jit := make([]geom.Point, len(hot))
		off := float64(i) * 1e-7
		for pi, p := range hot {
			jit[pi] = geom.Point{X: p.X + off, Y: p.Y + off}
		}
		qs[i] = &traj.T{ID: qs[i].ID, Points: jit}
	}
}

// runAutopilotWarmup keeps replaying the query workload until the
// autopilot takes its first automatic action (cutover or replica
// promotion) or a timeout passes — the cost EWMAs need a minimum number
// of observations per partition before the planner trusts them, and the
// benchmark workload alone can finish before the first tick. Prints the
// `autopilot: ...` summary line the soak harness parses.
func runAutopilotWarmup(ctx context.Context, coord *dnet.Coordinator, reg *obs.Registry, qs []*traj.T, tau float64) {
	actions := func() int64 {
		return reg.Counter("coord_autopilot_cutovers_total").Value() +
			reg.Counter("coord_autopilot_promotions_total").Value()
	}
	deadline := time.Now().Add(30 * time.Second)
	rounds := 0
	for actions() == 0 && time.Now().Before(deadline) && ctx.Err() == nil {
		for _, q := range qs {
			if _, _, err := coord.SearchTraced(ctx, "trips", q, tau, nil); err != nil {
				break
			}
		}
		rounds++
	}
	fmt.Printf("autopilot: %d automatic cutover(s), %d promotion(s) after %d warmup round(s)\n",
		reg.Counter("coord_autopilot_cutovers_total").Value(),
		reg.Counter("coord_autopilot_promotions_total").Value(),
		rounds)
	if stats, err := coord.WorkerStats(); err == nil {
		parts := make([]string, len(stats))
		for i, s := range stats {
			parts[i] = fmt.Sprintf("%d", s.SearchCalls)
		}
		fmt.Printf("autopilot: per-worker search calls: %s\n", strings.Join(parts, " "))
	}
}

// queryContext derives the per-query context: the signal-cancelled parent
// plus the optional -deadline.
func queryContext(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, d)
}

// runIngest streams n mutations into the dispatched dataset: fresh
// trajectories (ids above the dataset's range, geometry recycled from its
// members) with ~10% deletes of earlier ingested ids mixed in. Every
// write is replicated to all owners and WAL-logged before it is acked;
// backpressure (ErrOverloaded) is handled the way a well-behaved producer
// does — jittered exponential backoff (serve.Backoff) — and counted.
// A skew fraction aims that share of the upserts at one member's
// geometry (with a per-write jitter so the copies stay separable by STR
// cuts), concentrating them in a single partition.
func runIngest(ctx context.Context, coord *dnet.Coordinator, data *dita.Dataset, n int, seed int64, skew float64) {
	if data.Len() == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed + 7))
	const idBase = 1 << 28
	start := time.Now()
	var upserts, deletes, retries int
	var live []int
	backoff := serve.Backoff{Seed: seed + 11}
	write := func(fn func() error) bool {
		r, err := serve.RetryOverloaded(ctx, backoff, fn)
		retries += r
		if err == nil {
			return true
		}
		if ctx.Err() != nil {
			return false
		}
		fatal(err)
		return false
	}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		if len(live) > 4 && rng.Intn(10) == 0 {
			j := rng.Intn(len(live))
			id := live[j]
			if !write(func() error {
				_, err := coord.DeleteContext(ctx, "trips", id)
				return err
			}) {
				return
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			deletes++
			continue
		}
		pts := data.Trajs[i%data.Len()].Points
		if skew > 0 && rng.Float64() < skew {
			hot := data.Trajs[0].Points
			jit := make([]geom.Point, len(hot))
			off := float64(i) * 1e-7
			for pi, p := range hot {
				jit[pi] = geom.Point{X: p.X + off, Y: p.Y + off}
			}
			pts = jit
		}
		t := &traj.T{ID: idBase + i, Points: pts}
		if !write(func() error {
			return coord.IngestContext(ctx, "trips", t)
		}) {
			return
		}
		upserts++
		live = append(live, t.ID)
	}
	elapsed := time.Since(start)
	ops := upserts + deletes
	if ops > 0 {
		fmt.Printf("ingest: %d upserts + %d deletes in %v (%.0f acked ops/s, %d backpressure retries)\n",
			upserts, deletes, elapsed.Round(time.Millisecond),
			float64(ops)/elapsed.Seconds(), retries)
	}
	if stats, err := coord.WorkerStats(); err == nil {
		var calls int64
		var delta int64
		for _, s := range stats {
			calls += s.IngestCalls
			delta += int64(s.DeltaBytes)
		}
		fmt.Printf("ingest: %d worker ingest RPCs, %.1f KB un-merged delta across the fleet\n",
			calls, float64(delta)/1e3)
	}
}

// runSoak hammers the cluster with queries whose lifecycles are cut short
// on purpose — tight deadlines and client-side cancellation — for dur,
// counting how each one ended. Nothing here may crash or leak: run it
// against workers started with -chaos to soak the combined failure paths.
func runSoak(ctx context.Context, coord *dnet.Coordinator, qs []*traj.T, tau float64, dur time.Duration, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var completed, cancelled, expired, overloaded, failed, partial int
	n := 0
	fmt.Printf("soak: cancelled-query workload for %v\n", dur)
	end := time.Now().Add(dur)
	for time.Now().Before(end) && ctx.Err() == nil {
		q := qs[n%len(qs)]
		n++
		qctx := ctx
		cancel := context.CancelFunc(func() {})
		switch n % 3 {
		case 0:
			// Tight deadline: often expires mid-fan-out.
			qctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.Intn(20))*time.Millisecond)
		case 1:
			// Client-side cancel racing the query.
			qctx, cancel = context.WithCancel(ctx)
			go func(c context.CancelFunc, d time.Duration) {
				time.Sleep(d)
				c()
			}(cancel, time.Duration(rng.Intn(10))*time.Millisecond)
		}
		_, rep, err := coord.SearchTraced(qctx, "trips", q, tau, nil)
		cancel()
		switch {
		case err == nil:
			completed++
			if rep.Partial() {
				partial++
			}
		case errors.Is(err, context.DeadlineExceeded):
			expired++
		case errors.Is(err, context.Canceled):
			cancelled++
		case errors.Is(err, dnet.ErrOverloaded):
			overloaded++
		default:
			failed++
			fmt.Fprintf(os.Stderr, "soak: query %d: %v\n", n, err)
		}
	}
	fmt.Printf("soak: %d queries — %d completed (%d partial), %d expired, %d cancelled, %d overloaded, %d failed\n",
		n, completed, partial, expired, cancelled, overloaded, failed)
	if failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dita-net: %v\n", err)
	os.Exit(1)
}
