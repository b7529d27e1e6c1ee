package main

// The benchmark's contract: workloads and metrics, by name. BENCHMARK.json at
// the repo root repeats this table for the driver; TestSpecMatchesBenchmarkJSON
// keeps the two identical.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

const (
	wlEngine     = "engine_mix"
	wlCluster    = "cluster_mix"
	wlServeHot   = "serve_hot"
	wlServeWrite = "serve_write_mix"
)

var workloads = []workloadSpec{
	{wlEngine, "in-process core.Engine, 1 client: rtree/trie/verify/measure do all the work, no RPC, HTTP or cache; a dnet/serve gain must show nothing here"},
	{wlCluster, "same op sequence through dnet.Coordinator over 3 loopback workers, R=2, snapshots+WAL on: the difference to engine_mix is the dnet cost"},
	{wlServeHot, "dita-serve over the cluster, 2 clients, Zipf(1.1) reads from a 256-query pool that fits the cache: cache/JSON/HTTP dominate, a trie/verify gain predicts no change"},
	{wlServeWrite, "dita-serve, 2 clients, 50% distinct searches (5x the cache), 10% kNN, 35% ingest, 5% delete, small MergeBytes: invalidation, delta scans, fsync, merges"},
}

// Every workload reports every end-to-end metric (the driver's contract), so
// every workload runs every phase; see README.md "Phases".
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"search_p50_ms", "ms", "lower", 0.25},
	{"search_p95_ms", "ms", "lower", 0.25},
	{"knn_p50_ms", "ms", "lower", 0.25},
	{"knn_p95_ms", "ms", "lower", 0.25},
	{"join_s", "s", "lower", 0.25},
	{"ingest_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"heap_mb", "MiB", "lower", 0.02},
	{"bytes_per_traj", "B", "lower", 0.02},
	{"cold_start_s", "s", "lower", 0.25},
}

var funnelStages = []string{"considered", "trie_cands", "after_length", "after_coverage", "verified", "matched"}

// perLayer lists the layer-probe metrics (a --trace 1 run). A workload that
// does not cross a layer reports 0 for it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		{Name: "gen.generate_ms", Unit: "ms", Better: "lower"},
		{Name: "str.tile_ms", Unit: "ms", Better: "lower"},
		{Name: "trie.build_ms", Unit: "ms", Better: "lower"},
		{Name: "dnet.dispatch_ms", Unit: "ms", Better: "lower"},
		{Name: "core.global_prune_us", Unit: "us", Better: "lower"},
		{Name: "core.relevant_ratio", Unit: "ratio", Better: "lower"},
		{Name: "trie.descend_us", Unit: "us", Better: "lower"},
		{Name: "trie.nodes_visited", Unit: "count", Better: "lower"},
		{Name: "trie.pruned_ratio", Unit: "ratio", Better: "higher"},
		{Name: "trie.cands_ratio", Unit: "ratio", Better: "lower"},
		{Name: "trie.bytes_per_traj", Unit: "B", Better: "lower"},
		{Name: "trie.encode_ms", Unit: "ms", Better: "lower"},
		{Name: "trie.decode_ms", Unit: "ms", Better: "lower"},
		{Name: "core.verify_us", Unit: "us", Better: "lower"},
	}
	for _, op := range []string{"search", "knn"} {
		for _, st := range funnelStages {
			m = append(m, metricSpec{Name: "core.funnel." + op + "." + st, Unit: "count", Better: "lower"})
		}
	}
	m = append(m,
		metricSpec{Name: "core.verified_per_result", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "core.delta_scan_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "core.join_plan_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "core.join_exec_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "core.join_pairs", Unit: "count", Better: "higher"},
		metricSpec{Name: "measure.dtw_threshold_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "measure.abandon_ratio", Unit: "ratio", Better: "higher"},
		metricSpec{Name: "measure.dp_cells", Unit: "count", Better: "lower"},
		metricSpec{Name: "dnet.rpc_overhead_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "dnet.coord_self_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "dnet.critical_overhead_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "dnet.remote_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "dnet.fanout", Unit: "count", Better: "lower"},
		metricSpec{Name: "dnet.attempts", Unit: "count", Better: "lower"},
		metricSpec{Name: "dnet.failovers", Unit: "count", Better: "lower"},
		metricSpec{Name: "dnet.knn_rounds", Unit: "count", Better: "lower"},
		metricSpec{Name: "dnet.gob_encode_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "dnet.gob_decode_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "dnet.gob_args_bytes", Unit: "B", Better: "lower"},
		metricSpec{Name: "dnet.gob_reply_bytes", Unit: "B", Better: "lower"},
		metricSpec{Name: "dnet.ingest_rpc_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "dnet.merges", Unit: "count", Better: "higher"},
		metricSpec{Name: "dnet.ingest_rejected", Unit: "count", Better: "lower"},
		metricSpec{Name: "serve.miss_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "serve.hit_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "serve.overhead_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "serve.http_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
		metricSpec{Name: "serve.cache_evictions", Unit: "count", Better: "lower"},
		metricSpec{Name: "serve.coalesced", Unit: "count", Better: "higher"},
		metricSpec{Name: "serve.shed", Unit: "count", Better: "lower"},
		metricSpec{Name: "serve.resp_bytes", Unit: "B", Better: "lower"},
		metricSpec{Name: "wal.append_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "wal.replay_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "snap.encode_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "snap.decode_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "snap.bytes_per_traj", Unit: "B", Better: "lower"},
		metricSpec{Name: "probe.trace_overhead_pct", Unit: "%", Better: "lower"},
		metricSpec{Name: "probe.layer_sum_ratio", Unit: "ratio", Better: "higher"},
	)
	return m
}
