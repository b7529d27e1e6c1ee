package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dita/internal/core"
	"dita/internal/dnet"
	"dita/internal/gen"
	"dita/internal/geom"
	"dita/internal/obs"
	"dita/internal/serve"
	"dita/internal/snap"
	"dita/internal/str"
	"dita/internal/traj"
	"dita/internal/trie"
	"dita/internal/wal"
)

// The layer probe: after the timed phases of a --trace 1 run it times calls
// into each layer's public functions from here, outside the program, and reads
// the counts the public API already returns. Compute-layer timings (global
// prune, trie, verify, measure, join plan) are taken on an in-process reference
// engine built over the same corpus in every workload, because a worker reports
// only its total handler time; counts come from the workload's own path.

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func (r *runner) layerProbe() error {
	for _, m := range perLayer {
		r.metrics[m.Name] = 0
	}
	r.countsFromRun()
	slice := r.in.order[:min(r.p.Slice, len(r.in.order))]
	ref, err := r.probeBuild()
	if err != nil {
		return err
	}
	if err := r.probeCompute(ref, slice); err != nil {
		return err
	}
	if err := r.probeJoin(); err != nil {
		return err
	}
	if r.st.coord != nil {
		if err := r.probeDnet(slice); err != nil {
			return err
		}
	}
	if r.st.srv != nil {
		if err := r.probeServe(); err != nil {
			return err
		}
	}
	if err := r.probeDeltaScan(ref, slice); err != nil {
		return err
	}
	return r.probeStorage(ref)
}

// countsFromRun reads what the timed phases left in the registries passed in
// through Options.Obs, Config.Obs and Worker.Instrument, and the cache stats.
func (r *runner) countsFromRun() {
	var counters map[string]int64
	prefix, requests := "", map[string]float64{}
	switch {
	case r.st.engReg != nil:
		counters, prefix = r.st.engReg.Snapshot().Counters, "engine_"
		requests["search"], requests["knn"] = float64(counters["engine_searches_total"]), float64(counters["engine_knn_total"])
	case r.st.coordReg != nil:
		counters, prefix = r.st.coordReg.Snapshot().Counters, "coord_"
		requests["search"], requests["knn"] = float64(counters["coord_searches_total"]), float64(counters["coord_knn_total"])
	}
	if r.st.serveReg != nil {
		// Per request, not per backend execution: a cache hit verifies nothing.
		sc := r.st.serveReg.Snapshot().Counters
		requests["search"], requests["knn"] = float64(sc["serve_search_requests_total"]), float64(sc["serve_knn_requests_total"])
		r.metrics["serve.coalesced"] = float64(sc["serve_coalesced_total"])
		r.metrics["serve.shed"] = float64(sc["serve_shed_total"])
		cs := r.st.srv.CacheStats()
		if cs.Hits+cs.Misses > 0 {
			r.metrics["serve.cache_hit_ratio"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
		}
		r.metrics["serve.cache_evictions"] = float64(cs.Evicted)
	}
	for _, op := range []string{"search", "knn"} {
		if requests[op] == 0 {
			continue
		}
		for _, st := range funnelStages {
			r.metrics["core.funnel."+op+"."+st] = float64(counters[prefix+op+"_funnel_"+st+"_total"]) / requests[op]
		}
		r.samples["core.funnel."+op+".verified"] = int(requests[op])
	}
	if parts := counters[prefix+"search_funnel_partitions_total"]; parts > 0 {
		r.metrics["core.relevant_ratio"] = float64(counters[prefix+"search_funnel_relevant_total"]) / float64(parts)
	}
	if matched := counters[prefix+"search_funnel_matched_total"]; matched > 0 {
		r.metrics["core.verified_per_result"] = float64(counters[prefix+"search_funnel_verified_total"]) / float64(matched)
	}
	for _, reg := range r.st.workerRegs {
		g := reg.Snapshot().Gauges
		r.metrics["dnet.merges"] += float64(g["worker_merges_total"])
		r.metrics["dnet.ingest_rejected"] += float64(g["worker_ingest_rejected_total"])
	}
	r.metrics["dnet.dispatch_ms"] = ms(r.st.dispatchDur)
}

// probeBuild times the build layers and returns the reference engine.
func (r *runner) probeBuild() (*core.Engine, error) {
	t0 := time.Now()
	gen.Generate(gen.BeijingLike(r.p.N, corpusSeed))
	r.metrics["gen.generate_ms"] = ms(time.Since(t0))

	opts := r.st.engineOptions()
	opts.Obs = nil
	trajs := r.in.corpus.Trajs
	t0 = time.Now()
	firsts := make([]geom.Point, len(trajs))
	for i, t := range trajs {
		firsts[i] = t.First()
	}
	for _, bucket := range str.Tile(firsts, opts.NG) {
		lasts := make([]geom.Point, len(bucket))
		for j, i := range bucket {
			lasts[j] = trajs[i].Last()
		}
		str.Tile(lasts, opts.NG)
	}
	r.metrics["str.tile_ms"] = ms(time.Since(t0))

	ref, err := core.NewEngine(r.in.corpus, opts)
	if err != nil {
		return nil, err
	}
	var build, enc, dec time.Duration
	var size int
	for _, p := range ref.Partitions() {
		t0 = time.Now()
		trie.Build(p.Trajs, opts.Trie)
		build += time.Since(t0)
		size += p.Index.SizeBytes()
		t0 = time.Now()
		data := p.Index.AppendBinary(nil)
		enc += time.Since(t0)
		t0 = time.Now()
		if _, err := trie.DecodeBinary(data, p.Trajs); err != nil {
			return nil, fmt.Errorf("trie decode: %w", err)
		}
		dec += time.Since(t0)
	}
	r.metrics["trie.build_ms"] = ms(build)
	r.metrics["trie.encode_ms"] = ms(enc)
	r.metrics["trie.decode_ms"] = ms(dec)
	r.metrics["trie.bytes_per_traj"] = float64(size) / float64(len(trajs))
	return ref, nil
}

// probeCompute replays the slice's searches on the reference engine layer by
// layer: global prune over the partitions' endpoint MBRs, trie descent and the
// verify cascade per relevant partition, then the threshold DP alone on the
// pairs that reached it.
func (r *runner) probeCompute(ref *core.Engine, slice []*traj.T) error {
	m, cellD, parts := ref.Measure(), ref.CellD(), ref.Partitions()
	meta := make([][]core.VerifyMeta, len(parts))
	for i, p := range parts {
		meta[i] = make([]core.VerifyMeta, len(p.Trajs))
		for j, t := range p.Trajs {
			meta[i][j] = core.NewVerifyMeta(t, cellD)
		}
	}
	untraced := func() (time.Duration, int) {
		t0, n := time.Now(), 0
		for _, q := range slice {
			n += len(ref.Search(q, searchTau, nil))
		}
		return time.Since(t0), n
	}
	before, wantHits := untraced()

	type dpPair struct{ t, q []geom.Point }
	type partCands struct {
		part int
		idx  []int
	}
	var nodes, pruned, cands, considered, gotHits int
	var tracedWall, layerSum time.Duration
	dp := make([][]dpPair, len(slice))
	tr := r.tracer
	for qi, q := range slice {
		root := tr.begin("query", -1, qi)
		s := tr.begin("core.global_prune", root, qi)
		var rel []int
		for i, p := range parts {
			if !p.Retired() && core.TrajRelevant(m, q.Points, p.MBRf, p.MBRl, searchTau) {
				rel = append(rel, i)
			}
		}
		tr.end(s)
		var verified []partCands
		for _, i := range rel {
			p := parts[i]
			var ts trie.Stats
			s = tr.begin("trie.descend", root, qi)
			cs, err := p.Index.SearchBoundsContext(bg, q.Points, m, searchTau, &ts)
			tr.end(s)
			if err != nil {
				return err
			}
			nodes, pruned, cands, considered = nodes+ts.NodesVisited, pruned+ts.Pruned, cands+len(cs), considered+len(p.Trajs)
			idx := make([]int, len(cs))
			for j, c := range cs {
				idx[j] = c.Idx
			}
			s = tr.begin("core.verify", root, qi)
			v := core.NewVerifier(m, q.Points, searchTau, cellD)
			hits, err := v.VerifyAll(bg, p.Trajs, meta[i], idx, 1)
			tr.end(s)
			if err != nil {
				return err
			}
			gotHits += len(hits)
			verified = append(verified, partCands{i, idx})
		}
		tr.end(root)
		// Outside the spans: find which candidates reach the exact DP, by
		// watching a second verifier's funnel one candidate at a time.
		for _, pc := range verified {
			p := parts[pc.part]
			v2 := core.NewVerifier(m, q.Points, searchTau, cellD)
			var reached int64
			for _, c := range pc.idx {
				v2.Verify(p.Trajs[c], meta[pc.part][c])
				if f := v2.Funnel(0, 0); f.Verified > reached {
					reached = f.Verified
					dp[qi] = append(dp[qi], dpPair{p.Trajs[c].Points, q.Points})
				}
			}
		}
	}
	after, _ := untraced()
	if gotHits != wantHits {
		r.fail("layer replay found %d hits over the slice, Engine.Search %d", gotHits, wantHits)
	}
	self := tr.selfTimes()
	n := float64(len(slice))
	sum := func(name string) time.Duration {
		var s float64
		for _, x := range self[name] {
			s += x
		}
		return time.Duration(s * 1e3)
	}
	for _, name := range []string{"core.global_prune", "trie.descend", "core.verify"} {
		layerSum += sum(name)
	}
	tracedWall = layerSum + sum("query")
	r.metrics["core.global_prune_us"] = us(sum("core.global_prune")) / n
	r.metrics["trie.descend_us"] = us(sum("trie.descend")) / n
	r.metrics["core.verify_us"] = us(sum("core.verify")) / n
	r.metrics["trie.nodes_visited"] = float64(nodes) / n
	if nodes > 0 {
		r.metrics["trie.pruned_ratio"] = float64(pruned) / float64(nodes)
	}
	if considered > 0 {
		r.metrics["trie.cands_ratio"] = float64(cands) / float64(considered)
	}
	plain := (before + after) / 2
	r.metrics["probe.layer_sum_ratio"] = float64(layerSum) / float64(plain)
	if r.st.coord == nil {
		r.metrics["probe.trace_overhead_pct"] = 100 * float64(tracedWall-plain) / float64(plain)
	}
	r.samples["core.verify_us"] = len(slice)
	r.logf("engine slice: untraced %.1f us/query, layers %.1f us/query", us(plain)/n, us(layerSum)/n)

	// measure: the exact DP alone, on the pairs that reached it.
	var calls, abandoned int
	var cells float64
	replay := tr.begin("measure.replay", -1, -1)
	for qi, pairs := range dp {
		s := tr.begin("measure.dtw_threshold", replay, qi)
		for _, p := range pairs {
			if _, ok := dtw.DistanceThreshold(p.t, p.q, searchTau); !ok {
				abandoned++
			}
		}
		tr.end(s)
		calls += len(pairs)
		for _, p := range pairs {
			cells += float64(len(p.t) * len(p.q))
		}
	}
	tr.end(replay)
	if calls > 0 {
		var total float64
		for _, x := range tr.selfTimes()["measure.dtw_threshold"] {
			total += x
		}
		r.metrics["measure.dtw_threshold_us"] = total / float64(calls)
		r.metrics["measure.abandon_ratio"] = float64(abandoned) / float64(calls)
		r.metrics["measure.dp_cells"] = cells / float64(calls) // computed as m*n per call, not counted in the DP
	}
	r.samples["measure.dtw_threshold_us"] = calls
	return nil
}

// probeJoin runs the self-join of "sub" on a reference engine with a trace and
// splits it into planning (bi-graph, orientation) and execution.
func (r *runner) probeJoin() error {
	opts := r.st.engineOptions()
	opts.Obs = nil
	e, err := core.NewEngine(r.in.sub, opts)
	if err != nil {
		return err
	}
	js := core.JoinStats{Trace: obs.NewTrace("join")}
	root := r.tracer.begin("core.join", -1, -1)
	pairs := e.Join(e, joinTau, core.DefaultJoinOptions(), &js)
	r.tracer.end(root)
	var plan time.Duration
	for _, s := range js.Trace.Spans() {
		if s.Name == "bigraph" || s.Name == "orient" {
			plan += s.Duration
			r.tracer.add("core.join_plan."+s.Name, root, -1, s.Start, s.Duration)
		}
	}
	total := r.tracer.dur(root)
	r.metrics["core.join_plan_us"] = us(plan)
	r.metrics["core.join_exec_us"] = us(total - plan)
	r.metrics["core.join_pairs"] = float64(len(pairs))
	return nil
}

// probeDnet replays the slice through the coordinator with its trace on and
// splits each query into coordinator self time, RPC overhead and worker time.
func (r *runner) probeDnet(slice []*traj.T) error {
	c, tr := r.st.coord, r.tracer
	untraced := func() (time.Duration, error) {
		t0 := time.Now()
		for _, q := range slice {
			if _, err := c.Search("trips", q, searchTau); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	before, err := untraced()
	if err != nil {
		return err
	}

	var rpcOver, coordSelf, critical, remote, fanout, attempts, failovers []float64
	t0 := time.Now()
	for qi, q := range slice {
		qs := dnet.QueryStats{Trace: obs.NewTrace("search")}
		root := tr.begin("dnet.search", -1, qi)
		_, _, err := c.SearchTraced(bg, "trips", q, searchTau, &qs)
		tr.end(root)
		if err != nil {
			return err
		}
		var over, rem, slowest time.Duration
		var ivals [][2]time.Duration
		n := 0
		for _, s := range qs.Trace.Spans() {
			switch s.Name {
			case "partition-search":
				n++
				over += s.Duration - s.Remote
				rem += s.Remote
				slowest = max(slowest, s.Remote)
				ivals = append(ivals, [2]time.Duration{s.Start, s.Start + s.Duration})
				id := tr.add("dnet.rpc", root, qi, s.Start, s.Duration)
				tr.add("dnet.remote", id, qi, s.Start+(s.Duration-s.Remote)/2, s.Remote)
			case "global-prune":
				tr.add("dnet.global_prune", root, qi, s.Start, s.Duration)
			}
		}
		if n > 0 {
			rpcOver = append(rpcOver, us(over)/float64(n))
		}
		coordSelf = append(coordSelf, us(qs.Elapsed-unionLen(ivals)))
		critical = append(critical, us(qs.Elapsed-slowest))
		remote = append(remote, us(rem))
		fanout = append(fanout, float64(n))
		attempts = append(attempts, float64(qs.Attempts))
		failovers = append(failovers, float64(qs.Failovers))
	}
	traced := time.Since(t0)
	after, err := untraced()
	if err != nil {
		return err
	}
	plain := (before + after) / 2
	// Medians, to set beside search_p50_ms; counts are means per query.
	r.metrics["dnet.rpc_overhead_us"] = median(rpcOver)
	r.metrics["dnet.coord_self_us"] = median(coordSelf)
	r.metrics["dnet.critical_overhead_us"] = median(critical)
	r.metrics["dnet.remote_us"] = median(remote)
	r.metrics["dnet.fanout"] = mean(fanout)
	r.metrics["dnet.attempts"] = mean(attempts)
	r.metrics["dnet.failovers"] = mean(failovers)
	r.metrics["probe.trace_overhead_pct"] = 100 * float64(traced-plain) / float64(plain)
	r.samples["dnet.rpc_overhead_us"] = len(rpcOver)

	// The coordinator's own global prune, through its public call.
	t0 = time.Now()
	for _, q := range slice {
		if _, err := c.RelevantPartitions("trips", q.Points, searchTau); err != nil {
			return err
		}
	}
	r.metrics["core.global_prune_us"] = us(time.Since(t0)) / float64(len(slice))

	var rounds []float64
	for qi, q := range slice[:len(slice)/10] {
		qs := dnet.QueryStats{Trace: obs.NewTrace("knn")}
		root := tr.begin("dnet.knn", -1, qi)
		_, _, err := c.SearchKNNTraced(bg, "trips", q, knnK, &qs)
		tr.end(root)
		if err != nil {
			return err
		}
		n := 0
		for _, s := range qs.Trace.Spans() {
			if s.Name == "knn-round" {
				n++
				tr.add("dnet.knn_round", root, qi, s.Start, s.Duration)
			}
		}
		rounds = append(rounds, float64(n))
	}
	r.metrics["dnet.knn_rounds"] = mean(rounds)

	// gob, over the exported wire types, one encoder and decoder for the slice
	// as net/rpc keeps one per connection.
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	var encT, decT time.Duration
	var argsBytes, replyBytes int
	for _, q := range slice {
		hits, err := c.Search("trips", q, searchTau)
		if err != nil {
			return err
		}
		args := dnet.SearchArgs{Dataset: "trips", Partition: 1, Query: q.Points, Tau: searchTau, TimeoutMillis: 1000}
		reply := dnet.SearchReply{Hits: hits, Candidates: len(hits), Verified: len(hits), ElapsedMicros: 1}
		t0 = time.Now()
		if err := enc.Encode(&args); err != nil {
			return err
		}
		encT += time.Since(t0)
		argsBytes += buf.Len()
		var a2 dnet.SearchArgs
		t0 = time.Now()
		if err := dec.Decode(&a2); err != nil {
			return err
		}
		decT += time.Since(t0)
		t0 = time.Now()
		if err := enc.Encode(&reply); err != nil {
			return err
		}
		encT += time.Since(t0)
		replyBytes += buf.Len()
		var r2 dnet.SearchReply
		t0 = time.Now()
		if err := dec.Decode(&r2); err != nil {
			return err
		}
		decT += time.Since(t0)
	}
	n := float64(len(slice))
	r.metrics["dnet.gob_encode_us"] = us(encT) / n
	r.metrics["dnet.gob_decode_us"] = us(decT) / n
	r.metrics["dnet.gob_args_bytes"] = float64(argsBytes) / n
	r.metrics["dnet.gob_reply_bytes"] = float64(replyBytes) / n

	cl := r.in.newClient(0, 1)
	cl.nextID = insertID0 * 2
	var ingest []float64
	for i := 0; i < 100; i++ {
		t := cl.clone()
		s := tr.begin("dnet.ingest", -1, i)
		err := c.Ingest("trips", t)
		tr.end(s)
		if err != nil {
			return err
		}
		ingest = append(ingest, us(tr.dur(s)))
	}
	r.metrics["dnet.ingest_rpc_us"] = median(ingest)
	return nil
}

// unionLen is the total length covered by the intervals.
func unionLen(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// probeServe times the handler alone (in-memory recorder) on a miss and on the
// hit that follows, the backend alone on the same query, and the loopback
// round trip of the hit.
func (r *runner) probeServe() error {
	h := r.st.srv.Handler()
	backend := &serve.CoordBackend{C: r.st.coord, Dataset: "trips"}
	hd := r.st.door.(*httpDoor)
	tr := r.tracer
	// Members no phase has asked about: the far end of the seeded order, past
	// the warm-up tail.
	n := len(r.in.order)
	qs := r.in.order[n/2 : n/2+100]
	call := func(name string, qi int, body []byte) (time.Duration, *httptest.ResponseRecorder) {
		req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s := tr.begin(name, -1, qi)
		h.ServeHTTP(rec, req)
		tr.end(s)
		return tr.dur(s), rec
	}
	var miss, hit, direct, rt, bytesOut []float64
	for qi, q := range qs {
		body, err := json.Marshal(queryBody{Query: rawPoints(q.Points), Tau: searchTau})
		if err != nil {
			return err
		}
		d, rec := call("serve.miss", qi, body)
		if st := rec.Header().Get("X-Dita-Cache"); rec.Code != http.StatusOK || st != "miss" {
			return fmt.Errorf("serve probe: first request got status %d cache %q, want a miss", rec.Code, st)
		}
		miss = append(miss, us(d))
		bytesOut = append(bytesOut, float64(rec.Body.Len()))
		d, rec = call("serve.hit", qi, body)
		if st := rec.Header().Get("X-Dita-Cache"); st != "hit" {
			return fmt.Errorf("serve probe: repeated request got cache %q, want a hit", st)
		}
		hit = append(hit, us(d))
		s := tr.begin("serve.backend", -1, qi)
		_, err = backend.Search(bg, q.Points, searchTau)
		tr.end(s)
		if err != nil {
			return err
		}
		direct = append(direct, us(tr.dur(s)))
		s = tr.begin("serve.roundtrip", -1, qi)
		_, err = hd.Search(q.Points, searchTau)
		tr.end(s)
		if err != nil {
			return err
		}
		rt = append(rt, us(tr.dur(s)))
	}
	r.metrics["serve.miss_us"] = median(miss)
	r.metrics["serve.hit_us"] = median(hit)
	r.metrics["serve.overhead_us"] = median(miss) - median(direct)
	r.metrics["serve.http_us"] = median(rt) - median(hit)
	r.metrics["serve.resp_bytes"] = mean(bytesOut)
	r.samples["serve.miss_us"] = len(miss)
	return nil
}

// probeDeltaScan measures what an unmerged delta of a tenth of the corpus adds
// to a search on the reference engine.
func (r *runner) probeDeltaScan(ref *core.Engine, slice []*traj.T) error {
	if _, err := ref.EnableIngest(core.IngestConfig{MergeBytes: 1 << 30}); err != nil {
		return err
	}
	pass := func() time.Duration {
		t0 := time.Now()
		for _, q := range slice {
			ref.Search(q, searchTau, nil)
		}
		return time.Since(t0)
	}
	before := pass()
	rng := rand.New(rand.NewSource(r.seed + 30))
	for i := 0; i < r.p.N/10; i++ {
		src := r.in.corpus.Trajs[rng.Intn(r.in.corpus.Len())]
		if err := ref.Insert(&traj.T{ID: insertID0*3 + i, Points: src.Points}); err != nil {
			return err
		}
	}
	after := pass()
	r.metrics["core.delta_scan_us"] = us(after-before) / float64(len(slice))
	return ref.CloseIngest()
}

// probeStorage times the snapshot codec over every partition and the WAL: one
// fsynced append at a time in a fresh log, then, with the deployment closed,
// wal.Open over every log the run left.
func (r *runner) probeStorage(ref *core.Engine) error {
	var enc, dec time.Duration
	var size int
	for _, p := range ref.Partitions() {
		sn := ref.ExportSnapshot("trips", p)
		t0 := time.Now()
		data := snap.Encode(sn)
		enc += time.Since(t0)
		size += len(data)
		t0 = time.Now()
		if _, err := snap.Decode(data); err != nil {
			return fmt.Errorf("snapshot decode: %w", err)
		}
		dec += time.Since(t0)
	}
	r.metrics["snap.encode_ms"] = ms(enc)
	r.metrics["snap.decode_ms"] = ms(dec)
	r.metrics["snap.bytes_per_traj"] = float64(size) / float64(r.in.corpus.Len())

	dir := filepath.Join(r.tmp, "walprobe")
	ws, err := wal.NewStore(dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := ws.Open("probe", 0)
	if err != nil {
		return err
	}
	cl := r.in.newClient(0, 1)
	var appends []float64
	user := 0
	for i := 0; i < 200; i++ {
		t := cl.clone()
		user += t.Bytes()
		s := r.tracer.begin("wal.append", -1, i)
		err := log.Append(wal.Record{Seq: uint64(i + 1), Op: wal.OpInsert, ID: t.ID, Points: t.Points})
		r.tracer.end(s)
		if err != nil {
			return err
		}
		appends = append(appends, us(r.tracer.dur(s)))
	}
	r.metrics["wal.append_us"] = median(appends)
	r.metrics["wal.bytes_per_user_byte"] = float64(log.Size()) / float64(user)
	if err := log.Close(); err != nil {
		return err
	}

	r.st.Close()
	var replay time.Duration
	logs := 0
	err = filepath.Walk(r.dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		if _, _, ok := wal.ParseFilename(fi.Name()); !ok {
			return nil
		}
		t0 := time.Now()
		l, _, err := wal.Open(path)
		if err != nil {
			return err
		}
		replay += time.Since(t0)
		logs++
		return l.Close()
	})
	r.metrics["wal.replay_ms"] = ms(replay)
	r.samples["wal.replay_ms"] = logs
	return err
}
