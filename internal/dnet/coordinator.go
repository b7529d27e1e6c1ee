package dnet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dita/internal/admit"
	"dita/internal/core"
	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/obs"
	"dita/internal/rtree"
	"dita/internal/snap"
	"dita/internal/str"
	"dita/internal/traj"
	"dita/internal/trie"
)

// Config parameterizes a network-mode deployment.
type Config struct {
	// NG is the global grid factor (NG×NG partitions per dataset).
	NG int
	// Trie is the local index configuration (Strategy travels as an int).
	Trie trie.Config
	// Measure names the similarity function.
	Measure MeasureSpec
	// CellD is the cell side length recorded in snapshots (see
	// core.Options.CellD); <= 0 derives it from the data extent like the
	// in-process engine.
	CellD float64
	// Replicas is the partition replication factor: each partition is
	// shipped to this many distinct workers (default 2, clamped to the
	// worker count). Searches route to the preferred replica and fail
	// over to the others; when a worker is declared dead its partitions
	// are re-replicated onto survivors from payloads the coordinator
	// retains — the stand-in for Spark's lineage-based recovery.
	Replicas int
	// AllowPartial lets Search/Join return partial results plus an exact
	// report of unreachable partitions when every replica of a partition
	// is down, instead of failing the whole query.
	AllowPartial bool
	// RetainPayloads keeps the raw dispatch payloads in coordinator
	// memory even when enough workers confirmed durable snapshots of a
	// partition. By default the coordinator frees a partition's payload
	// once ≥ Replicas workers hold it durably — healing then pulls the
	// snapshot worker-to-worker (Worker.Replicate) instead of re-shipping
	// from the coordinator. Set this when workers run without snapshot
	// directories but you still want payload-based healing... it is also
	// the escape hatch if snapshot-based healing misbehaves.
	RetainPayloads bool
	// Retry bounds the managed RPC clients (deadline, backoff, attempts).
	Retry RetryPolicy
	// Health configures the failure detector and optional heartbeat loop.
	Health HealthPolicy
	// Admission bounds concurrent queries (search, kNN, join); the zero
	// value (MaxConcurrent <= 0) admits everything. Saturation returns
	// ErrOverloaded instead of queueing work without bound.
	Admission admit.Policy
	// Obs, when non-nil, receives the coordinator's metrics: query
	// counts, latency and admission-wait histograms, retry/failover
	// counters, per-class skip counters, and whole-query pruning funnels
	// (coord_* names). Nil disables recording and the per-query clock
	// reads that feed it.
	Obs *obs.Registry
	// Autopilot, when Interval > 0, runs the rebalancing autopilot: a
	// background loop that watches per-partition read costs and occupancy
	// skew, triggers Rebalance cutovers and read-replica promotions
	// automatically, and backs off when the planner fails to converge.
	Autopilot AutopilotConfig
}

// ErrOverloaded is returned by a query when the admission gate is
// saturated (all slots busy and the wait queue full or timed out).
var ErrOverloaded = admit.ErrOverloaded

// DefaultNetConfig mirrors core.DefaultOptions for the network mode.
func DefaultNetConfig() Config {
	return Config{NG: 4, Trie: trie.DefaultConfig(), Measure: MeasureSpec{Name: "DTW"}}
}

// SkippedPartition identifies one partition a partial query could not
// reach, with the last error seen trying and how much the query spent
// trying: total RPC attempts across every replica (managed-client retries
// included), wall-clock elapsed, and the coarse error class (obs.Classify)
// so operators can tell a timeout storm from a partition of dead workers.
type SkippedPartition struct {
	Dataset   string
	Partition int
	Err       string
	Attempts  int
	Elapsed   time.Duration
	Class     string
}

// PartialReport lists exactly the partitions a query skipped because
// every replica was unreachable. Empty means the result is complete.
type PartialReport struct {
	Skipped []SkippedPartition
}

// Partial reports whether anything was skipped.
func (r *PartialReport) Partial() bool { return r != nil && len(r.Skipped) > 0 }

// Coordinator is the network-mode driver: it partitions datasets across
// the workers, keeps the global index (partition MBRs) locally, and fans
// queries out over managed RPC clients with retry, failover, and
// failure detection.
type Coordinator struct {
	cfg     Config
	m       measure.Measure
	clients []*managedClient
	// pings are dedicated per-worker probe connections. Health checks must
	// not share the data connection: a ping deadline tears its connection
	// down, and a large reply in transit can legitimately delay a ping
	// past 2s — severing every in-flight data call on a healthy worker.
	pings  []*managedClient
	addrs  []string
	health *healthTracker
	adm    *admit.CostGate // nil admits everything
	met    *coordMetrics   // nil when Config.Obs is nil

	hbStop   chan struct{}
	hbOnce   sync.Once
	hbClosed sync.WaitGroup

	// readTick drives orderRotated's spreading of reads across
	// equally-healthy replicas; one bump per replica-ordered probe.
	readTick atomic.Uint64

	// Autopilot pacing, keyed by dataset name (stable across the
	// RecoverDataset pointer swap): last action time and consecutive
	// non-convergence count.
	apMu      sync.Mutex
	apLast    map[string]time.Time
	apBackoff map[string]int

	mu       sync.Mutex
	datasets map[string]*dispatchedDataset
}

// dispatchedDataset records where a dataset's partitions live plus the
// global index over their endpoint MBRs. The parts slice only ever
// GROWS, and only under a rebalance cutover (repartitionGroup) holding
// both the group's write locks and mu; partition ids are never reused —
// a split or merge retires the old pids in place (empty bounds, no
// replicas) and appends the pieces at fresh ids, so WAL and snapshot
// filenames, loc entries, and replica lists never alias across layouts.
// Ingest grows a partition's bounds in place (and replaces the R-trees)
// under mu, so query paths read the global index through boundsView,
// never directly.
type dispatchedDataset struct {
	name string
	// opts are the build options Dispatch sealed every partition with — what
	// a payload heal re-seals with. Zero on a recovered dataset, which has
	// no payloads.
	opts  snap.BuildOptions
	parts []dispatchedPartition
	rtF   *rtree.Tree
	rtL   *rtree.Tree

	// mu guards replicas and the partitions' mutable payload fields:
	// replicas[pid] lists the partition's owners (indexes into
	// Coordinator.addrs), preferred first. It also guards the ingest
	// state below and the partitions' mbrF/mbrL/trajs plus the R-trees.
	mu       sync.Mutex
	replicas [][]int

	// Ingest state: loc maps trajectory id → owning partition (routing
	// stickiness for upserts, lookup for deletes); nextSeq[pid] is the
	// last sequence number assigned to the partition (reserved before the
	// RPC, burned on failure); live[pid] is the partition's current
	// visible member count (dispatch size, corrected by acked inserts and
	// deletes) — the occupancy the rebalance planner reads and the term
	// the dataset's visible total sums; mutated records that any write
	// was acked — healing must then never fall back to the stale dispatch
	// payloads.
	loc     map[int]int
	nextSeq []uint64
	live    []int
	mutated bool

	// Epoch counters for cache invalidation (internal/serve).
	// writeMark[pid] counts ACKED writes to the partition — bumped in the
	// post-ack bookkeeping under mu, after the replica fan-out succeeded,
	// unlike nextSeq which advances at reservation time and may be burned
	// by a failed write. boundsEpoch bumps whenever a write grows a
	// partition's MBR (the same writes that call rebuildTreesLocked): a
	// cached answer's touched-partition set is computed from the bounds,
	// so growth can make a partition newly relevant and must invalidate
	// even answers that never touched it.
	writeMark   []uint64
	boundsEpoch uint64

	// pmu[pid] serializes writes to one partition end to end: held from
	// sequence reservation through the replica fan-out and the post-ack
	// bookkeeping. Without it two writes could reserve ordered numbers
	// yet reach the workers out of order, and the workers' monotone
	// dedupe floor would silently drop the lower-seq (acked!) write.
	// Rebalance cutovers hold every group member's pmu across the whole
	// export→load→install sequence, so a quiesced partition stays exactly
	// the exported image until the new layout is installed. The entries
	// are pointers because the slice grows at cutover: a blocked writer
	// re-reads the slice under mu but must keep the mutex it resolved.
	// Each pmu is taken before mu, never while holding it.
	pmu []*sync.Mutex

	// rebalMu serializes rebalance cutovers on this dataset (they lock
	// multiple pmu entries; two concurrent cutovers over overlapping
	// groups would deadlock).
	rebalMu sync.Mutex

	// cost holds the per-partition read-cost EWMAs the query paths feed
	// (verified candidates and partition-probe wall time per query) and
	// the cost-aware planner and autopilot read. Internally synchronized;
	// never nil after construction.
	cost *core.CostTracker
}

// ddView is a query's consistent picture of the dataset's global index:
// bounds[pid] is the partition's entry (a retired one keeps its slot, with
// empty boxes and the flag set), trajs[pid] its dispatch-time size and
// live[pid] its visible member count (dd.live) — how many answers a kNN
// pilot can expect from it. The R-tree pointers are safe to use off-lock:
// ingest replaces the trees, never mutates them.
type ddView struct {
	bounds      []core.PartBounds
	trajs, live []int
	rtF, rtL    *rtree.Tree
	// visible is the dataset's live member count: dispatch-time totals
	// corrected by the acked inserts and deletes since.
	visible int
}

// boundsView snapshots the global index under the dataset lock.
func (dd *dispatchedDataset) boundsView() ddView {
	dd.mu.Lock()
	defer dd.mu.Unlock()
	n := len(dd.parts)
	v := ddView{bounds: make([]core.PartBounds, n), trajs: make([]int, n),
		live: append([]int(nil), dd.live...), rtF: dd.rtF, rtL: dd.rtL}
	for i := range dd.parts {
		p := &dd.parts[i]
		v.bounds[i] = core.PartBounds{MBRf: p.mbrF, MBRl: p.mbrL, Retired: p.retired}
		v.trajs[i] = p.trajs
		v.visible += dd.live[i]
	}
	return v
}

type dispatchedPartition struct {
	mbrF, mbrL geom.MBR
	trajs      int
	// retired marks a partition replaced by a rebalance cutover. Its id is
	// never reused; it keeps its slot (empty MBRs, zero trajs, nil
	// replicas) so existing pids, WAL/snapshot names, and loc entries stay
	// unambiguous across layouts. Query, routing, and healing paths all
	// skip it.
	retired bool
	// fingerprint is the partition's content hash (snap.Fingerprint over
	// build options and trajectories) — how the coordinator recognizes a
	// worker already holding this exact partition.
	fingerprint uint64
	// payload is the partition's member slice as dispatched (the pointers
	// alias the caller's dataset), kept so a dead replica can be rebuilt on
	// a surviving worker without re-partitioning: the heal re-seals it
	// (sealPartition, with the dataset's opts) when it needs it, so no image
	// is ever retained. It is released (nil) once enough workers confirm
	// durable snapshots; healing then transfers snapshots worker-to-worker
	// instead. Guarded by the dataset's mu after dispatch.
	payload []*traj.T
}

// DispatchReport accounts one dispatch: how many partitions the dataset
// has, how many replica loads actually crossed the wire, how many
// placements were satisfied by content the workers already held
// (cold-started from snapshots), and how many raw payloads the
// coordinator could release because durable snapshots cover them.
type DispatchReport struct {
	Partitions      int
	Loads           int
	Reused          int
	PayloadsDropped int
}

// Connect dials the workers and returns a coordinator. If
// cfg.Health.Interval > 0, a background heartbeat loop runs until Close.
func Connect(addrs []string, cfg Config) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dnet: no worker addresses")
	}
	if cfg.NG < 1 {
		cfg.NG = 1
	}
	if cfg.Measure.Name == "" {
		cfg.Measure.Name = "DTW"
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > len(addrs) {
		cfg.Replicas = len(addrs)
	}
	cfg.Retry = cfg.Retry.withDefaults()
	cfg.Health = cfg.Health.withDefaults()
	m, err := measure.ByName(cfg.Measure.Name, cfg.Measure.Eps, cfg.Measure.Delta)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:       cfg,
		m:         m,
		addrs:     addrs,
		health:    newHealthTracker(len(addrs), cfg.Health),
		adm:       admit.New(cfg.Admission),
		met:       newCoordMetrics(cfg.Obs),
		hbStop:    make(chan struct{}),
		apLast:    map[string]time.Time{},
		apBackoff: map[string]int{},
		datasets:  map[string]*dispatchedDataset{},
	}
	c.adm.Instrument(cfg.Obs, "coord_admit")
	for i, a := range addrs {
		policy := cfg.Retry
		policy.Seed = cfg.Retry.Seed + int64(i) // decorrelate jitter across workers
		mc := newManagedClient(a, policy)
		if _, err := mc.connect(); err != nil {
			mc.Close()
			c.Close()
			return nil, fmt.Errorf("dnet: dialing worker %s: %w", a, err)
		}
		c.clients = append(c.clients, mc)
		c.pings = append(c.pings, newManagedClient(a, policy)) // dials lazily
	}
	if cfg.Health.Interval > 0 {
		c.hbClosed.Add(1)
		go c.heartbeatLoop(cfg.Health.Interval)
	}
	if cfg.Autopilot.Interval > 0 {
		c.cfg.Autopilot = cfg.Autopilot.withDefaults(cfg)
		c.hbClosed.Add(1)
		go c.autopilotLoop(c.cfg.Autopilot.Interval)
	}
	return c, nil
}

// Close stops the heartbeat loop and disconnects from the workers (the
// workers keep running). It is idempotent.
func (c *Coordinator) Close() error {
	c.hbOnce.Do(func() { close(c.hbStop) })
	c.hbClosed.Wait()
	var first error
	for _, cls := range [][]*managedClient{c.clients, c.pings} {
		for _, cl := range cls {
			if cl == nil {
				continue
			}
			if err := cl.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

func (c *Coordinator) heartbeatLoop(interval time.Duration) {
	defer c.hbClosed.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-t.C:
			c.CheckHealth()
		}
	}
}

// replicaOwners places partition pid on r distinct workers out of w:
// primary round-robin by pid, backups on the following workers.
func replicaOwners(pid, r, w int) []int {
	owners := make([]int, 0, r)
	for i := 0; i < r; i++ {
		owners = append(owners, (pid+i)%w)
	}
	return owners
}

// Dispatch partitions the dataset (first/last STR, Section 4.2.1), ships
// each partition to Replicas distinct workers, and has the workers index
// them. The name identifies the dataset in later Search/Join calls. On
// partial failure every partition already shipped is unloaded, so a
// retried Dispatch cannot double-index data.
func (c *Coordinator) Dispatch(name string, d *traj.Dataset) error {
	_, err := c.DispatchStats(name, d)
	return err
}

// workerInventories asks every worker what it holds, concurrently. A
// worker that fails the call simply reports nothing — dispatch then ships
// it everything, which is always safe.
func (c *Coordinator) workerInventories() []map[partKey]InventoryPart {
	inv := make([]map[partKey]InventoryPart, len(c.clients))
	var wg sync.WaitGroup
	for i := range c.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var reply InventoryReply
			if err := c.clients[i].CallOnce("Worker.Inventory", &InventoryArgs{}, &reply, c.cfg.Retry.CallTimeout); err != nil {
				return
			}
			inv[i] = make(map[partKey]InventoryPart, len(reply.Parts))
			for _, p := range reply.Parts {
				inv[i][partKey{p.Dataset, p.Partition}] = p
			}
		}(i)
	}
	wg.Wait()
	return inv
}

// DispatchStats is Dispatch plus the shipping report. Before loading, the
// coordinator asks each worker what it already holds (Worker.Inventory);
// replica placements whose (dataset, partition, fingerprint) match are
// reused without re-shipping or re-indexing — the cold-start fast path.
// After a fully successful dispatch, partitions durably snapshotted on at
// least Replicas workers have their raw payloads released (unless
// Config.RetainPayloads), shrinking coordinator memory; healing for those
// partitions transfers snapshots between workers.
func (c *Coordinator) DispatchStats(name string, d *traj.Dataset) (*DispatchReport, error) {
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("dnet: empty dataset %q", name)
	}
	cellD := c.cfg.CellD
	if cellD <= 0 {
		cellD = defaultCellD(d)
	}
	opts := snap.BuildOptions{
		Measure:  c.cfg.Measure.Name,
		Eps:      c.cfg.Measure.Eps,
		Delta:    c.cfg.Measure.Delta,
		K:        c.cfg.Trie.K,
		NLAlign:  c.cfg.Trie.NLAlign,
		NLPivot:  c.cfg.Trie.NLPivot,
		MinNode:  c.cfg.Trie.MinNode,
		Strategy: int(c.cfg.Trie.Strategy),
		CellD:    cellD,
	}
	dd := &dispatchedDataset{name: name, opts: opts, loc: map[int]int{}, cost: core.NewCostTracker()}
	trajs := d.Trajs
	firsts := make([]geom.Point, len(trajs))
	for i, t := range trajs {
		firsts[i] = t.First()
	}
	// jobs[pid] names the owners partition pid must be shipped to.
	var jobs []sealJob
	rep := &DispatchReport{}
	// durable[pid] counts owners that already hold the partition durably;
	// seqFloor[pid] is the highest ingest sequence any worker reports for
	// the partition — a restarted coordinator must assign numbers past it
	// or workers would dedupe fresh writes as retransmissions.
	var durable []int
	var seqFloor []uint64
	inv := c.workerInventories()
	for _, bucket := range str.Tile(firsts, c.cfg.NG) {
		if len(bucket) == 0 {
			continue
		}
		lasts := make([]geom.Point, len(bucket))
		for j, i := range bucket {
			lasts[j] = trajs[i].Last()
		}
		for _, sub := range str.Tile(lasts, c.cfg.NG) {
			// Zero-trajectory sub-buckets would pollute the global
			// R-trees with empty MBRs and cost a useless RPC; skip them.
			if len(sub) == 0 {
				continue
			}
			pid := len(dd.parts)
			mbrF, mbrL := geom.EmptyMBR(), geom.EmptyMBR()
			members := make([]*traj.T, 0, len(sub))
			for _, k := range sub {
				t := trajs[bucket[k]]
				members = append(members, t)
				mbrF = mbrF.Extend(t.First())
				mbrL = mbrL.Extend(t.Last())
				if _, dup := dd.loc[t.ID]; dup {
					// Nothing has been sent yet. The routing table, Fetch and
					// the self-join's mirrored pairs all identify a member
					// by its id alone.
					return nil, fmt.Errorf("dnet: dataset %q: duplicate trajectory id %d", name, t.ID)
				}
				dd.loc[t.ID] = pid
			}
			fp := snap.Fingerprint(opts, members)
			owners := replicaOwners(pid, c.cfg.Replicas, len(c.clients))
			dd.parts = append(dd.parts, dispatchedPartition{
				mbrF: mbrF, mbrL: mbrL,
				trajs: len(members), fingerprint: fp, payload: members,
			})
			dd.replicas = append(dd.replicas, owners)
			durable = append(durable, 0)
			seqFloor = append(seqFloor, 0)
			// Every worker's inventory raises the sequence floor, owner or
			// not — a copy left behind by healing still pins numbers its
			// dedupe floor would swallow.
			for w := range inv {
				if held, ok := inv[w][partKey{name, pid}]; ok && held.LastSeq > seqFloor[pid] {
					seqFloor[pid] = held.LastSeq
				}
			}
			job := sealJob{pid: pid, members: members}
			for _, w := range owners {
				if held, ok := inv[w][partKey{name, pid}]; ok && held.Fingerprint == fp {
					// The worker already holds exactly this content
					// (cold-started from a snapshot, or surviving from an
					// earlier dispatch): nothing to ship.
					rep.Reused++
					if held.Snapshotted {
						durable[pid]++
					}
					continue
				}
				job.workers = append(job.workers, w)
			}
			rep.Loads += len(job.workers)
			jobs = append(jobs, job)
		}
	}
	rep.Partitions = len(dd.parts)
	// Reused partitions are left in place by a failed load's roll-back —
	// they predate this dispatch and will be reused again by the retry.
	snapped, err := c.loadSealed(name, opts, jobs)
	if err != nil {
		return nil, err
	}
	for pid, n := range snapped {
		durable[pid] += n
	}
	if !c.cfg.RetainPayloads {
		// Partitions durable on a full replica set no longer need their
		// raw payload in coordinator memory: healing can pull the
		// snapshot from a surviving replica (Worker.Replicate).
		for pid := range dd.parts {
			if durable[pid] >= c.cfg.Replicas {
				dd.parts[pid].payload = nil
				rep.PayloadsDropped++
			}
		}
	}
	dd.nextSeq = seqFloor
	dd.pmu = make([]*sync.Mutex, len(dd.parts))
	dd.live = make([]int, len(dd.parts))
	for pid := range dd.parts {
		dd.pmu[pid] = new(sync.Mutex)
		dd.live[pid] = dd.parts[pid].trajs
	}
	dd.writeMark = make([]uint64, len(dd.parts))
	rebuildTreesLocked(dd)
	c.mu.Lock()
	c.datasets[name] = dd
	c.mu.Unlock()
	if c.met != nil {
		c.met.dispatchReused.Add(int64(rep.Reused))
		c.met.payloadsDropped.Add(int64(rep.PayloadsDropped))
	}
	return rep, nil
}

// sealJob is one partition to build and ship: members are sealed once
// (sealPartition) and the image is loaded on every worker listed; with no
// worker listed nothing is built.
type sealJob struct {
	pid     int
	members []*traj.T
	workers []int
}

// loadSealed seals each job's partition and loads the image on the job's
// workers through the managed clients (net/rpc multiplexes on one connection
// per worker). The seals run in a pool bounded by GOMAXPROCS and overlap the
// sends of the partitions sealed before them; an image is referenced by its
// own sends alone, so it is garbage as soon as its owners have acked. It
// returns, per job, how many of its workers reported a durable snapshot. On
// any failure every load that did land is unloaded, best-effort, so the
// caller's previous layout stays the only one and a retry starts from a
// clean slate, and the first error is returned.
func (c *Coordinator) loadSealed(name string, opts snap.BuildOptions, jobs []sealJob) ([]int, error) {
	type landedLoad struct{ pid, worker int }
	var (
		mu       sync.Mutex
		firstErr error
		landed   []landedLoad
		snapped  = make([]int, len(jobs))
		wg       sync.WaitGroup
		seals    = make(chan struct{}, runtime.GOMAXPROCS(0))
	)
	for ji, job := range jobs {
		if len(job.workers) == 0 {
			continue
		}
		wg.Add(1)
		go func(ji int, job sealJob) {
			defer wg.Done()
			seals <- struct{}{}
			mu.Lock()
			failed := firstErr != nil
			mu.Unlock()
			if failed {
				<-seals
				return
			}
			args := sealPartition(name, job.pid, opts, job.members)
			<-seals
			for _, w := range job.workers {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var reply LoadReply
					err := c.clients[w].Call("Worker.Load", args, &reply)
					mu.Lock()
					defer mu.Unlock()
					if err != nil {
						if firstErr == nil {
							firstErr = err
						}
						return
					}
					landed = append(landed, landedLoad{job.pid, w})
					if reply.Snapshotted {
						snapped[ji]++
					}
				}(w)
			}
		}(ji, job)
	}
	wg.Wait()
	if firstErr == nil {
		return snapped, nil
	}
	for _, l := range landed {
		wg.Add(1)
		go func(l landedLoad) {
			defer wg.Done()
			var reply UnloadReply
			c.clients[l.worker].CallOnce("Worker.Unload",
				&UnloadArgs{Dataset: name, Partition: l.pid}, &reply, c.cfg.Retry.CallTimeout)
		}(l)
	}
	wg.Wait()
	return nil, firstErr
}

func (c *Coordinator) dataset(name string) (*dispatchedDataset, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dd, ok := c.datasets[name]
	if !ok {
		return nil, fmt.Errorf("dnet: dataset %q not dispatched", name)
	}
	return dd, nil
}

// replicaOrder copies a partition's replica list (under the lock healing
// takes to rewrite it) and orders it live-first, rotating each run of
// equally-healthy replicas so repeated reads spread across them instead
// of pinning every probe for a partition to the same first live worker.
// Failover ordering is preserved: suspect replicas still come after
// every healthy one, dead ones last.
func (c *Coordinator) replicaOrder(dd *dispatchedDataset, pid int) []int {
	dd.mu.Lock()
	ws := append([]int(nil), dd.replicas[pid]...)
	dd.mu.Unlock()
	return c.health.orderRotated(ws, c.readTick.Add(1))
}

// CheckHealth probes every worker once (Worker.Ping over the dedicated
// ping connections, with the policy's ping deadline) and advances the
// failure detector. Workers crossing into Dead are dropped from every
// replica list; then every under-replicated partition — from this death
// or any earlier heal that failed — is re-replicated onto survivors from
// the retained payloads. It returns the post-check states, indexed like
// the worker address list. The heartbeat loop calls this on an interval;
// tests and operators can call it directly.
func (c *Coordinator) CheckHealth() []WorkerState {
	ok := make([]bool, len(c.pings))
	var wg sync.WaitGroup
	for i := range c.pings {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var reply PingReply
			err := c.pings[i].CallOnce("Worker.Ping", &PingArgs{}, &reply, c.cfg.Health.PingTimeout)
			ok[i] = err == nil
		}(i)
	}
	wg.Wait()
	var died []int
	for i, alive := range ok {
		if alive {
			c.health.success(i)
		} else if c.health.failure(i, true) {
			died = append(died, i)
		}
	}
	for _, w := range died {
		c.removeWorker(w)
	}
	// Healing runs on every check, not just on a death transition, so a
	// re-replication Load that failed last time is retried on the next
	// tick instead of staying under-replicated until another worker dies.
	c.rereplicate()
	return c.health.snapshot()
}

// WorkerStates returns the failure detector's current view.
func (c *Coordinator) WorkerStates() []WorkerState { return c.health.snapshot() }

// lockedDatasets snapshots the dispatched-dataset list.
func (c *Coordinator) lockedDatasets() []*dispatchedDataset {
	c.mu.Lock()
	defer c.mu.Unlock()
	dds := make([]*dispatchedDataset, 0, len(c.datasets))
	for _, dd := range c.datasets {
		dds = append(dds, dd)
	}
	return dds
}

// removeWorker strips a dead worker from every partition's replica list.
// The partitions it leaves under-replicated are rebuilt by rereplicate.
func (c *Coordinator) removeWorker(dead int) {
	for _, dd := range c.lockedDatasets() {
		dd.mu.Lock()
		for pid, owners := range dd.replicas {
			kept := owners[:0]
			for _, w := range owners {
				if w != dead {
					kept = append(kept, w)
				}
			}
			dd.replicas[pid] = kept
		}
		dd.mu.Unlock()
	}
}

// healSourceLocked says what a new replica of partition pid is made from:
// the retained dispatch payload and the fingerprint it seals to, or (nil, 0)
// — pull from a surviving owner, unpinned — once any write was acked. Acked
// writes live only on the workers: the payload predates them, and the
// dispatch-time fingerprint no longer names any replica's content once a
// merge ran, so the copy must come from an export that carries the overlay.
// Caller holds dd.mu.
func healSourceLocked(dd *dispatchedDataset, pid int) ([]*traj.T, uint64) {
	if dd.mutated {
		return nil, 0
	}
	return dd.parts[pid].payload, dd.parts[pid].fingerprint
}

// shipReplica puts a copy of partition pid on worker target, for healing and
// promotion alike. With a payload the coordinator seals it now and loads the
// image (Worker.Load) — sealed per use, so retaining payloads never retains
// images. Without one (released after durable snapshotting, or stale) the
// target pulls the snapshot from a surviving owner (Worker.Replicate):
// sources are tried live-first, and a transfer the target classifies as
// peer-unreachable or corrupt just moves to the next source.
func (c *Coordinator) shipReplica(dd *dispatchedDataset, pid int, payload []*traj.T, fp uint64, srcs []int, target int, states []WorkerState) bool {
	if payload != nil {
		var reply LoadReply
		return c.clients[target].Call("Worker.Load", sealPartition(dd.name, pid, dd.opts, payload), &reply) == nil
	}
	for _, src := range c.health.order(srcs) {
		if states[src] == Dead {
			continue
		}
		var reply ReplicateReply
		err := c.clients[target].Call("Worker.Replicate", &ReplicateArgs{
			Dataset: dd.name, Partition: pid,
			SrcAddr: c.addrs[src], Fingerprint: fp,
		}, &reply)
		if err == nil {
			return true
		}
	}
	return false
}

// rereplicate scans every dispatched partition and rebuilds missing
// replicas onto the least-loaded eligible live workers until each is back
// at the configured replication factor (or no eligible worker remains —
// then the next scan tries again). Partitions whose raw payload the
// coordinator still retains are re-dispatched from it (Worker.Load);
// partitions whose payload was released after durable snapshotting are
// healed worker-to-worker: the target pulls the snapshot image from a
// surviving replica (Worker.Replicate → Worker.Export) and verifies it
// end to end. Dataset healing is what substitutes for Spark recomputing
// lost RDD partitions from lineage.
func (c *Coordinator) rereplicate() {
	type healLoad struct {
		dd      *dispatchedDataset
		pid     int
		payload []*traj.T // nil → snapshot-based healing via srcs
		fp      uint64
		srcs    []int // pre-heal owners, the candidate snapshot sources
		target  int
	}
	dds := c.lockedDatasets()
	// Current load per worker, to place re-replicas evenly.
	loads := make([]int, len(c.addrs))
	for _, dd := range dds {
		dd.mu.Lock()
		for _, owners := range dd.replicas {
			for _, w := range owners {
				loads[w]++
			}
		}
		dd.mu.Unlock()
	}
	states := c.health.snapshot()
	var plan []healLoad
	for _, dd := range dds {
		dd.mu.Lock()
		for pid := range dd.replicas {
			if dd.parts[pid].retired {
				// Retired partitions have no replicas and nothing to heal;
				// without this skip the planner would emit entries that can
				// never succeed (no payload, no sources) every scan.
				continue
			}
			owners := append([]int(nil), dd.replicas[pid]...)
			srcs := append([]int(nil), owners...)
			for len(owners) < c.cfg.Replicas {
				// Pick the least-loaded live worker not already a replica.
				target := -1
				for w := range c.addrs {
					if states[w] == Dead {
						continue
					}
					already := false
					for _, r := range owners {
						if r == w {
							already = true
							break
						}
					}
					if already {
						continue
					}
					if target < 0 || loads[w] < loads[target] {
						target = w
					}
				}
				if target < 0 {
					break
				}
				loads[target]++
				owners = append(owners, target)
				payload, fp := healSourceLocked(dd, pid)
				plan = append(plan, healLoad{
					dd: dd, pid: pid,
					payload: payload,
					fp:      fp,
					srcs:    srcs,
					target:  target,
				})
			}
		}
		dd.mu.Unlock()
	}
	// Ship the re-replicas outside the lock; register each on success.
	// Concurrent scans (heartbeat loop + a manual CheckHealth) may race to
	// heal the same partition, so registration re-checks under the lock.
	var wg sync.WaitGroup
	for _, h := range plan {
		wg.Add(1)
		go func(h healLoad) {
			defer wg.Done()
			healed := c.shipReplica(h.dd, h.pid, h.payload, h.fp, h.srcs, h.target, states)
			if !healed {
				return // retried on the next CheckHealth
			}
			h.dd.mu.Lock()
			owners := h.dd.replicas[h.pid]
			for _, w := range owners {
				if w == h.target {
					// A concurrent heal already registered this worker;
					// our Load was an idempotent reload of its copy.
					h.dd.mu.Unlock()
					return
				}
			}
			if len(owners) < c.cfg.Replicas {
				h.dd.replicas[h.pid] = append(owners, h.target)
				h.dd.mu.Unlock()
				return
			}
			h.dd.mu.Unlock()
			// A concurrent heal already restored full replication through
			// other workers; drop the surplus copy.
			var ur UnloadReply
			c.clients[h.target].CallOnce("Worker.Unload",
				&UnloadArgs{Dataset: h.dd.name, Partition: h.pid}, &ur,
				c.cfg.Retry.CallTimeout)
		}(h)
	}
	wg.Wait()
}

// WorkerStats gathers each worker's inventory.
func (c *Coordinator) WorkerStats() ([]StatsReply, error) {
	out := make([]StatsReply, len(c.clients))
	for i, cl := range c.clients {
		if err := cl.Call("Worker.Stats", &StatsArgs{}, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func defaultCellD(d *traj.Dataset) float64 {
	ext := d.Stats().Extent
	if ext.IsEmpty() {
		return 0.01
	}
	w := ext.Max.X - ext.Min.X
	if h := ext.Max.Y - ext.Min.Y; h > w {
		w = h
	}
	if w <= 0 {
		return 0.01
	}
	return w / 100
}
