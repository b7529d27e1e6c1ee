package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"dita/internal/traj"
)

// workloadDef is what sets one workload apart: the deployment shape, the
// client count and the traffic of its timed phases.
type workloadDef struct {
	opts    stackOpts
	clients int
	phases  []phaseDef
	// pool > 0 draws reads from the first pool members of the corpus (Zipf(zipf)
	// when zipf > 1, uniform otherwise) instead of walking the distinct sequence.
	pool int
	zipf float64
	// touchJoin makes acked writes to "sub" before every join, so a cached
	// self-join is never current.
	touchJoin bool
}

// phaseDef is one timed closed-loop phase: a share of --seconds and an op mix.
// Phases before the joins take turns in short blocks (see runGroup), and so do
// the phases after them.
type phaseDef struct {
	name      string
	share     float64
	mix       mix
	afterJoin bool // a write phase: reads and joins run on the read-only state before it
}

// writeMix is the traffic of a write phase: half of it reads, as in
// serve_write_mix. A phase of nothing but writes leaves the processors idle
// between fsyncs, and what it then measures is how long the hypervisor takes
// to wake one: ingest_p50_ms of serve_hot ranged 0.51-0.84 ms over ten runs,
// while the mixed phase of serve_write_mix repeated to 3%. The reads of a
// write phase run on a state that changes under them and count in ops_per_s
// only.
var writeMix = mix{opSearch: 0.5, opInsert: 0.45, opDelete: 0.05}

func workloadByName(name string) (workloadDef, bool) {
	// kNN gets the largest share: it is the slowest op (0.9 ms in the engine,
	// 3 ms through dnet, p95 13 ms), and its quantiles want their thousand samples.
	seq := []phaseDef{
		{name: "search", share: 0.35, mix: mix{opSearch: 1}},
		{name: "knn", share: 0.45, mix: mix{opKNN: 1}},
		{name: "write", share: 0.2, mix: writeMix, afterJoin: true},
	}
	switch name {
	case wlEngine:
		return workloadDef{opts: stackOpts{shape: shapeEngine}, clients: 1, phases: seq}, true
	case wlCluster:
		return workloadDef{opts: stackOpts{shape: shapeCluster}, clients: 1, phases: seq}, true
	case wlServeHot:
		return workloadDef{opts: stackOpts{shape: shapeServe}, clients: 2, pool: 256, zipf: 1.1,
			phases: []phaseDef{
				{name: "read", share: 0.75, mix: mix{opSearch: 0.8, opKNN: 0.2}},
				{name: "write", share: 0.25, mix: writeMix, afterJoin: true},
			}}, true
	case wlServeWrite:
		// 32 KiB, not the issue's 256: the phase is timed (about 3 600 inserts
		// of ~370 B, the hot ones spread over a dozen partitions), and each
		// hot partition should still merge several times.
		return workloadDef{opts: stackOpts{shape: shapeServe, mergeBytes: 32 << 10}, clients: 2, pool: 20_000,
			touchJoin: true,
			phases: []phaseDef{
				{name: "mixed", share: 1, mix: mix{opSearch: 0.5, opKNN: 0.1, opInsert: 0.35, opDelete: 0.05}},
			}}, true
	}
	return workloadDef{}, false
}

// phaseStats is what the clients did in all the time blocks of one phase.
type phaseStats struct {
	lat  [numOps][]float64 // ms, every request of the phase
	ops  int
	wall time.Duration
}

// runner carries one run of one workload.
type runner struct {
	name   string
	def    workloadDef
	p      params
	seed   int64
	tmp    string // directory for this run's snapshot+WAL dirs
	out    io.Writer
	in     *inputs
	st     *stack
	dir    string
	model  *model
	tracer *tracer // nil unless this is the layer-probe run

	attempted, failed int
	failNotes         []string
	setupTimes        []float64
	metrics           map[string]float64
	samples           map[string]int
	phases            map[string]*phaseStats
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.failNotes) < 10 {
		r.failNotes = append(r.failNotes, fmt.Sprintf(format, args...))
	}
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.out, "  [%s] "+format+"\n", append([]any{r.name}, args...)...)
}

// setUpOnce generates the corpus, builds the deployment in a fresh directory
// and warms it; it leaves them in r.in, r.st and r.dir and returns the time taken.
func (r *runner) setUpOnce() (float64, error) {
	dir, err := os.MkdirTemp(r.tmp, "store-")
	if err != nil {
		return 0, err
	}
	r.dir = dir
	t0 := time.Now()
	corpus, sub := generateCorpus(r.p)
	in := time.Now()
	r.in = newInputs(r.p, r.seed, corpus, sub) // the harness's work, not set-up
	t0 = t0.Add(time.Since(in))
	opts := r.def.opts
	opts.traced = r.tracer != nil
	if r.st, err = buildStack(opts, dir, corpus, sub); err != nil {
		r.st = nil
		return 0, fmt.Errorf("set-up: %w", err)
	}
	if err := r.warmUp(); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return time.Since(t0).Seconds(), nil
}

// setUp builds the deployment every later phase runs on, first thing in the
// process, as a process that serves would: on a heap that two earlier
// deployments had used and freed, engine_mix searched 8% slower and twice as
// unevenly from run to run. The other set-ups that setup_s is the median of
// come last (setUpAgain).
func (r *runner) setUp() error {
	el, err := r.setUpOnce()
	if err != nil {
		return err
	}
	r.setupTimes = []float64{el}
	r.model = newModel(r.in.corpus)
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.metrics["heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	r.samples["heap_mb"] = 1
	// Stored bytes are taken here, where they repeat exactly: after a timed
	// write phase they depend on how many writes the machine got through and
	// on which merges had run (2% between runs of the same code).
	bytes, err := dirBytes(r.dir)
	if err != nil {
		return err
	}
	stored := r.in.corpus.Len() + r.in.sub.Len()
	r.metrics["bytes_per_traj"] = float64(bytes) / float64(stored)
	r.samples["bytes_per_traj"] = stored
	return nil
}

// setUpAgain replaces the deployment, which has done its work, by a fresh one
// SetupReps-1 times and records the median of all the run's set-up times.
func (r *runner) setUpAgain() error {
	for len(r.setupTimes) < r.p.SetupReps {
		r.st.Close()
		os.RemoveAll(r.dir)
		r.in, r.model = nil, nil
		runtime.GC()
		el, err := r.setUpOnce()
		if err != nil {
			return err
		}
		r.setupTimes = append(r.setupTimes, el)
	}
	r.metrics["setup_s"] = median(r.setupTimes)
	r.samples["setup_s"] = len(r.setupTimes)
	return nil
}

// warmUp sends untimed requests so caches fill and lazy set-up finishes: the
// whole pool when reads repeat (the cache must be hot), else the tail of the
// seeded order, which the timed phases never reach.
func (r *runner) warmUp() error {
	var searches, knns []*traj.T
	if r.def.zipf > 1 {
		searches, knns = r.in.pool(r.def.pool), r.in.pool(r.def.pool)
	} else {
		n := len(r.in.order)
		searches, knns = r.in.order[n-r.p.WarmSearch:], r.in.order[n-r.p.WarmKNN:]
	}
	for _, q := range searches {
		if _, err := r.st.Search(q.Points, searchTau); err != nil {
			return err
		}
	}
	for _, q := range knns {
		if _, err := r.st.KNN(q.Points, knnK); err != nil {
			return err
		}
	}
	return nil
}

// runGroup runs the phases of a group in Rounds rounds, each phase one time
// block per round, so that every phase samples the whole of the group's time:
// the machine changes speed for seconds at a time, and a phase run in one
// piece would sit inside one such spell.
func (r *runner) runGroup(group []phaseDef, clients []*client) {
	for round := 0; round < r.p.Rounds; round++ {
		for _, ph := range group {
			if r.phases[ph.name] == nil {
				r.phases[ph.name] = &phaseStats{}
			}
			dur := time.Duration(ph.share * r.p.Seconds / float64(r.p.Rounds) * float64(time.Second))
			r.runBlock(ph, clients, dur, r.phases[ph.name])
		}
	}
}

// runBlock drives the phase's clients in a closed loop for dur and adds what
// they did to ps.
func (r *runner) runBlock(ph phaseDef, clients []*client, dur time.Duration, ps *phaseStats) {
	lat := make([][numOps][]float64, len(clients))
	fails := make([][]string, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				kind, ms, err := r.doOp(c, ph.mix)
				if err != nil {
					fails[ci] = append(fails[ci], fmt.Sprintf("%s op %d: %v", ph.name, kind, err))
					continue
				}
				lat[ci][kind] = append(lat[ci][kind], ms)
			}
		}(ci, c)
	}
	wg.Wait()
	ps.wall += time.Since(start)
	for ci := range clients {
		for k, xs := range lat[ci] {
			ps.lat[k] = append(ps.lat[k], xs...)
			ps.ops += len(xs)
			r.attempted += len(xs)
		}
		ps.ops += len(fails[ci])
		r.attempted += len(fails[ci])
		for _, f := range fails[ci] {
			r.fail("%s", f)
		}
	}
}

// doOp draws and performs the client's next request and returns its wall time.
func (r *runner) doOp(c *client, m mix) (opKind, float64, error) {
	kind := c.pick(m)
	var err error
	var t0 time.Time
	switch kind {
	case opSearch:
		q := c.query(kind)
		t0 = time.Now()
		_, err = r.st.Search(q.Points, searchTau)
	case opKNN:
		q := c.query(kind)
		t0 = time.Now()
		_, err = r.st.KNN(q.Points, knnK)
	case opInsert:
		t := c.clone()
		t0 = time.Now()
		err = r.st.Insert(t)
		if err == nil {
			c.mine = append(c.mine, t.ID)
			c.acked[t.ID] = t
		}
	case opDelete:
		id := c.victim()
		t0 = time.Now()
		var existed bool
		existed, err = r.st.Delete(id)
		if err == nil && !existed {
			err = fmt.Errorf("delete of acked insert %d reports it absent", id)
		}
		if err == nil {
			c.gone[id] = c.acked[id]
			delete(c.acked, id)
		}
	}
	return kind, float64(time.Since(t0).Nanoseconds()) / 1e6, err
}

// phaseMetrics turns what the phases did into the end-to-end metrics: a
// latency is a quantile over every request of its kind in the run, and
// ops_per_s the phases' rates weighted by their shares of the time.
func (r *runner) phaseMetrics() {
	pooled := func(kinds ...opKind) []float64 {
		var xs []float64
		for _, ph := range r.def.phases {
			for _, k := range kinds {
				if ph.afterJoin && k <= opKNN {
					continue // see writeMix
				}
				xs = append(xs, r.phases[ph.name].lat[k]...)
			}
		}
		return xs
	}
	quant := func(xs []float64, p float64, name string) {
		r.samples[name] = len(xs)
		if len(xs) == 0 {
			r.fail("no samples for %s", name)
			return
		}
		r.metrics[name] = percentile(xs, p)
	}
	searches, knns, writes := pooled(opSearch), pooled(opKNN), pooled(opInsert, opDelete)
	quant(searches, 0.50, "search_p50_ms")
	quant(searches, 0.95, "search_p95_ms")
	quant(knns, 0.50, "knn_p50_ms")
	quant(knns, 0.95, "knn_p95_ms")
	quant(writes, 0.50, "ingest_p50_ms")
	// Tails the run has the samples for but that do not repeat well enough on
	// a shared machine to be held to a bound (README.md, "Repeatability").
	r.logf("not gated: search p99 %.3f ms, kNN p99 %.3f ms, ingest p95 %.3f ms p99 %.3f ms", percentile(searches, 0.99),
		percentile(knns, 0.99), percentile(writes, 0.95), percentile(writes, 0.99))

	var rate float64 // the phases' shares sum to 1
	ops := 0
	for _, ph := range r.def.phases {
		ps := r.phases[ph.name]
		rate += ph.share * float64(ps.ops) / ps.wall.Seconds()
		ops += ps.ops
	}
	r.metrics["ops_per_s"] = rate
	r.samples["ops_per_s"] = ops
}

// joinPhase times JoinReps or more self-joins of "sub" after one untimed join,
// whose answer it checks against brute force.
func (r *runner) joinPhase() {
	want := bruteJoin(r.in.sub, joinTau)
	var times []float64
	// A join answered from the cache (serve_hot, 0.1 s) is repeated until the
	// joins have taken as long as five real ones do: five of them spread 16%.
	began := time.Now()
	for rep := 0; rep <= r.p.JoinReps || (time.Since(began) < r.p.JoinFor && rep <= 5*r.p.JoinReps); rep++ {
		if r.def.touchJoin {
			if err := r.st.Touch(); err != nil {
				r.fail("touch before join: %v", err)
			}
		}
		// Every join starts on a collected heap: a join allocates about as much
		// as the collector lets the heap grow, so where the heap stood when it
		// began would settle whether one collection or two fall inside it.
		runtime.GC()
		t0 := time.Now()
		pairs, err := r.st.Join(joinTau)
		el := time.Since(t0).Seconds()
		r.attempted++
		if err == nil && (rep == 0 || len(pairs) != len(want)) {
			err = checkJoin(pairs, want)
		}
		if err != nil {
			r.fail("join %d: %v", rep, err)
		}
		if rep > 0 {
			times = append(times, el)
		}
	}
	r.metrics["join_s"] = median(times)
	r.samples["join_s"] = len(times)
	lo, hi := percentile(times, 0), percentile(times, 1)
	r.logf("join: %d pairs, median %.3fs min %.3fs max %.3fs", len(want), r.metrics["join_s"], lo, hi)
}

// collectModel folds what the clients got acked into the model.
func (r *runner) collectModel(clients []*client) {
	for _, c := range clients {
		for id, t := range c.acked {
			r.model.inserted[id] = t
		}
		for id, t := range c.gone {
			r.model.deleted[id] = t
		}
	}
}

// checkAnswers compares a sample of searches and kNNs through the door with
// brute force over the model.
func (r *runner) checkAnswers() {
	qs := r.in.order[:r.p.CheckQs]
	for i, q := range qs {
		r.attempted++
		got, err := r.st.Search(q.Points, searchTau)
		if err == nil {
			err = checkSearch(got, r.model.within(q.Points, searchTau))
		}
		if err != nil {
			r.fail("check search %d: %v", i, err)
		}
		if i%4 != 0 {
			continue
		}
		r.attempted++
		got, err = r.st.KNN(q.Points, knnK)
		if err == nil {
			err = checkKNN(r.model, q.Points, knnK, got)
		}
		if err != nil {
			r.fail("check kNN %d: %v", i, err)
		}
	}
}

// restartPhase closes the deployment and cold-starts it from its directory
// RestartReps times. A restart ends at the first answer, which must be the
// model's; then every sampled acked insert must be found at distance 0 by a
// search on its own points and every sampled acked delete must be absent.
func (r *runner) restartPhase() error {
	probe := r.in.order[0]
	want := r.model.within(probe.Points, searchTau)
	var times []float64
	for rep := 0; rep < r.p.RestartReps; rep++ {
		r.attempted++
		runtime.GC() // as before a join
		t0 := time.Now()
		r.st.Close()
		st, err := reopenStack(r.st.opts, r.dir)
		if err != nil {
			return fmt.Errorf("restart %d: %w", rep, err)
		}
		r.st = st
		got, err := r.st.Search(probe.Points, searchTau)
		if err == nil {
			err = checkSearch(got, want)
		}
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			r.fail("first answer after restart %d: %v", rep, err)
		}
	}
	r.metrics["cold_start_s"] = median(times)
	r.samples["cold_start_s"] = len(times)

	for _, id := range sampleIDs(r.model.inserted, r.p.DurableQs) {
		t := r.model.inserted[id]
		r.attempted++
		got, err := r.st.Search(t.Points, durableTau)
		found := false
		for _, h := range got {
			found = found || (h.ID == id && h.Dist <= distTol)
		}
		if err != nil || !found {
			r.fail("acked insert %d lost across restart (err %v)", id, err)
		}
	}
	for _, id := range sampleIDs(r.model.deleted, r.p.DurableQs/2) {
		t := r.model.deleted[id]
		r.attempted++
		got, err := r.st.Search(t.Points, durableTau)
		for _, h := range got {
			if h.ID == id {
				err = fmt.Errorf("still visible")
			}
		}
		if err != nil {
			r.fail("acked delete %d undone across restart: %v", id, err)
		}
	}
	// Count check over everything, not a sample: a kNN with k above the
	// visible count returns every visible trajectory.
	r.attempted++
	all, err := r.st.KNN(probe.Points, r.model.visible()+10)
	if err != nil || len(all) != r.model.visible() {
		r.fail("after restart %d trajectories are visible, model has %d (err %v)", len(all), r.model.visible(), err)
	}
	return nil
}

// run executes the workload and fills metrics.
func (r *runner) run() error {
	stage := time.Now()
	lap := func(name string) {
		r.logf("%s took %.1fs", name, time.Since(stage).Seconds())
		stage = time.Now()
	}
	if err := r.setUp(); err != nil {
		return err
	}
	lap("set-up")
	defer func() {
		if r.st != nil {
			r.st.Close()
		}
		os.RemoveAll(r.dir)
	}()
	clients := make([]*client, maxClients)
	for i := range clients {
		clients[i] = r.in.newClient(i, r.def.clients)
		if r.def.pool > 0 {
			clients[i].withPool(r.def.pool, r.def.zipf)
		}
	}
	r.phases = map[string]*phaseStats{}
	var before, after []phaseDef
	for _, ph := range r.def.phases {
		if ph.afterJoin {
			after = append(after, ph)
		} else {
			before = append(before, ph)
		}
	}
	r.runGroup(before, clients[:r.def.clients])
	lap("phases before the joins")
	r.joinPhase()
	lap("joins and their oracle")
	r.runGroup(after, clients)
	lap("phases after the joins")
	r.phaseMetrics()
	r.collectModel(clients)
	r.checkAnswers()
	lap("answer check")
	if r.tracer != nil {
		return r.layerProbe()
	}
	if err := r.restartPhase(); err != nil {
		return err
	}
	lap("restarts and durability check")
	defer lap("further set-ups")
	return r.setUpAgain()
}

// sampleIDs returns up to n of the map's ids, evenly spaced in id order.
func sampleIDs(m map[int]*traj.T, n int) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if len(ids) <= n {
		return ids
	}
	out := make([]int, n)
	for i := range out {
		out[i] = ids[i*len(ids)/n]
	}
	return out
}
