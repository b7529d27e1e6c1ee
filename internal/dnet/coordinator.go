package dnet

import (
	"context"
	"errors"
	"fmt"
	"net/rpc"
	"runtime"
	"sort"
	"strings"
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
	// Admission bounds concurrent Search/Join queries; the zero value
	// (MaxConcurrent <= 0) admits everything. Saturation returns
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

// ErrOverloaded is returned by Search/Join when the admission controller
// is saturated (all slots busy and the wait queue full or timed out).
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

func (r *PartialReport) err(op string) error {
	s := r.Skipped[0]
	return fmt.Errorf("dnet: %s: %d partition(s) unreachable (first: %s/%d: %s)",
		op, len(r.Skipped), s.Dataset, s.Partition, s.Err)
}

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
	adm    *admit.Controller
	met    *coordMetrics // nil when Config.Obs is nil

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

// Search fans the query out to the workers owning relevant partitions
// and merges the verified hits (ascending id). Per partition it routes
// to the preferred live replica and fails over to the others; with
// AllowPartial unreachable partitions are skipped (SearchPartial exposes
// the report), otherwise they fail the query.
func (c *Coordinator) Search(name string, q *traj.T, tau float64) ([]SearchHit, error) {
	hits, _, err := c.SearchPartialContext(context.Background(), name, q, tau)
	return hits, err
}

// SearchContext is Search under query-lifecycle control: the query passes
// admission control, a cancelled context aborts remaining replica
// attempts and drains the fan-out, and a context deadline travels to the
// workers in-band so remote work stops when the query's budget runs out.
func (c *Coordinator) SearchContext(ctx context.Context, name string, q *traj.T, tau float64) ([]SearchHit, error) {
	hits, _, err := c.SearchPartialContext(ctx, name, q, tau)
	return hits, err
}

// SearchPartial is Search plus the partial-result report: the returned
// report lists exactly the partitions whose every replica was
// unreachable. Without AllowPartial a non-empty report is an error.
func (c *Coordinator) SearchPartial(name string, q *traj.T, tau float64) ([]SearchHit, *PartialReport, error) {
	return c.SearchPartialContext(context.Background(), name, q, tau)
}

// remainingMillis converts a context deadline into the in-band budget
// stamped on worker calls; 0 means unbounded. An already-expired deadline
// still sends 1ms — the caller's next ctx check aborts before the call.
func remainingMillis(ctx context.Context) int64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	rem := time.Until(dl).Milliseconds()
	if rem < 1 {
		rem = 1
	}
	return rem
}

// cutoverReplans bounds how many times one query re-plans after losing
// the race with a concurrent rebalance cutover (its pinned view named a
// partition that retired before the probe landed). Each re-plan reads a
// strictly newer layout, so more than a few only happen under continuous
// cutover churn — then the query reports the skips like any other.
const cutoverReplans = 3

// allSkippedRetired reports whether every partition the query skipped is
// now retired — the signature of probes racing a cutover rather than of
// unreachable workers, and the trigger for a re-plan against the fresh
// layout (the moved trajectories are all serveable there).
func (c *Coordinator) allSkippedRetired(dd *dispatchedDataset, rep *PartialReport) bool {
	if !rep.Partial() {
		return false
	}
	dd.mu.Lock()
	defer dd.mu.Unlock()
	for _, s := range rep.Skipped {
		if s.Partition < 0 || s.Partition >= len(dd.parts) || !dd.parts[s.Partition].retired {
			return false
		}
	}
	return true
}

// SearchPartialContext is SearchContext plus the partial-result report.
// Cancellation is never partial: a done context fails the query with
// ctx.Err() after the fan-out goroutines drain.
func (c *Coordinator) SearchPartialContext(ctx context.Context, name string, q *traj.T, tau float64) ([]SearchHit, *PartialReport, error) {
	return c.SearchTraced(ctx, name, q, tau, nil)
}

// SearchTraced is SearchPartialContext plus per-query observability: qs
// (may be nil) receives the whole-query pruning funnel, attempt/failover
// totals and timings, and — when qs.Trace is set — a coordinator-assembled
// trace with one span per partition RPC (worker address, attempts
// including retries and failovers, remote compute time, partition-local
// funnel), plus admission, global-prune, skip, and merge spans.
func (c *Coordinator) SearchTraced(ctx context.Context, name string, q *traj.T, tau float64, qs *QueryStats) ([]SearchHit, *PartialReport, error) {
	report := &PartialReport{}
	if q == nil || len(q.Points) == 0 {
		return nil, report, ctx.Err()
	}
	var tr *obs.Trace
	if qs != nil {
		tr = qs.Trace
	}
	timed := qs != nil || c.met != nil
	var qStart time.Time
	if timed {
		qStart = time.Now()
	}
	release, err := c.adm.Acquire(ctx)
	if timed {
		wait := time.Since(qStart)
		if qs != nil {
			qs.AdmissionWait = wait
		}
		if c.met != nil {
			c.met.admissionWait.Observe(wait.Microseconds())
		}
		if tr != nil {
			s := obs.Span{Name: "admit", Partition: -1, Start: qStart.Sub(tr.Begin), Duration: wait}
			if err != nil {
				s.Err, s.Class = err.Error(), obs.Classify(err)
			}
			tr.Add(s)
		}
	}
	if err != nil {
		return nil, report, err
	}
	defer release()
	dd, err := c.dataset(name)
	if err != nil {
		return nil, report, err
	}
	// A rebalance cutover can retire partitions between this query's view
	// pin and its partition probes: the probes then fail on every replica
	// ("not loaded" — the former owners unloaded the retired pid) even
	// though no worker is unhealthy and every moved trajectory is
	// serveable in the fresh layout. When ALL skipped partitions turn out
	// retired, the failure is staleness, not health: re-plan against the
	// current view, bounded in case cutovers keep landing mid-query. With
	// the autopilot triggering cutovers on its own schedule this race is
	// routine, not an operator-window corner case.
	var out []SearchHit
	var funnel obs.Funnel
	var totalAttempts, totalFailovers int
	for attempt := 0; ; attempt++ {
		out = nil
		report = &PartialReport{}
		var gStart time.Time
		if timed {
			gStart = time.Now()
		}
		// The partition count comes from the view too: dd.parts grows under
		// dd.mu at a rebalance cutover.
		view := dd.boundsView()
		rel := core.RelevantPartitions(c.m, view.rtF, view.rtL, view.bounds, q.Points, tau)
		funnel = obs.Funnel{Partitions: int64(len(view.bounds)), Relevant: int64(len(rel))}
		if tr != nil {
			gf := funnel
			tr.Add(obs.Span{Name: "global-prune", Partition: -1,
				Start: gStart.Sub(tr.Begin), Duration: time.Since(gStart), Funnel: &gf})
		}
		replies := make([]SearchReply, len(rel))
		skipped := make([]*SkippedPartition, len(rel))
		attempts := make([]int, len(rel))
		tried := make([]int, len(rel))
		var wg sync.WaitGroup
		for i, pid := range rel {
			wg.Add(1)
			go func(i, pid int) {
				defer wg.Done()
				// Unconditional: a clock read is noise next to the RPC it
				// brackets, and skip reports must carry timing even with
				// observability off.
				pStart := time.Now()
				args := &SearchArgs{Dataset: name, Partition: pid, Query: q.Points, Tau: tau}
				if tr != nil {
					args.TraceID, args.SpanID = tr.ID, obs.NewTraceID()
				}
				var lastErr error
				for _, w := range c.replicaOrder(dd, pid) {
					// A dead query must not burn failover attempts: the check
					// runs before every replica, so deadline expiry on one
					// worker cancels the remaining attempts instead of
					// retrying them.
					if err := ctx.Err(); err != nil {
						lastErr = err
						break
					}
					args.TimeoutMillis = remainingMillis(ctx)
					replies[i] = SearchReply{}
					tried[i]++
					n, err := c.clients[w].CallContextN(ctx, "Worker.Search", args, &replies[i])
					attempts[i] += n
					if err != nil {
						lastErr = err
						if ctx.Err() != nil {
							// Cancelled mid-call: not the worker's fault, so
							// no health verdict either way.
							break
						}
						if retryableError(err) {
							c.health.failure(w, false)
						} else {
							// An application error is proof of life: the
							// worker answered, it just can't serve this
							// partition. Don't deprioritize it.
							c.health.success(w)
						}
						continue
					}
					c.health.success(w)
					// Feed the autopilot's cost signal: this partition's share of
					// the query, as verified candidates and probe wall time.
					dd.cost.Observe(pid, replies[i].Funnel.Verified, time.Since(pStart))
					if tr != nil {
						f := replies[i].Funnel
						tr.Add(obs.Span{Name: "partition-search", Worker: c.addrs[w],
							Partition: pid, Attempts: attempts[i],
							Start: pStart.Sub(tr.Begin), Duration: time.Since(pStart),
							Remote: time.Duration(replies[i].ElapsedMicros) * time.Microsecond,
							Funnel: &f})
					}
					return
				}
				if lastErr == nil {
					// Healing can drain a replica list to empty (Replicas=1,
					// or every re-load still failing): nothing to even try.
					lastErr = fmt.Errorf("dnet: no replicas for partition %s/%d", name, pid)
				}
				elapsed := time.Since(pStart)
				skipped[i] = &SkippedPartition{Dataset: name, Partition: pid, Err: lastErr.Error(),
					Attempts: attempts[i], Elapsed: elapsed, Class: obs.Classify(lastErr)}
				if tr != nil {
					tr.Add(obs.Span{Name: "partition-search", Partition: pid,
						Attempts: attempts[i], Start: pStart.Sub(tr.Begin), Duration: elapsed,
						Err: lastErr.Error(), Class: obs.Classify(lastErr)})
				}
			}(i, pid)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, report, err
		}
		mergeDone := tr.StartSpan("merge", -1)
		for i := range rel {
			c.met.recordRetries(attempts[i], tried[i])
			totalAttempts += attempts[i]
			if tried[i] > 1 {
				totalFailovers += tried[i] - 1
			}
			if skipped[i] != nil {
				report.Skipped = append(report.Skipped, *skipped[i])
				c.met.recordSkip(skipped[i].Class)
				continue
			}
			funnel.Merge(replies[i].Funnel)
			out = append(out, replies[i].Hits...)
		}
		sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
		mergeDone(nil)
		if report.Partial() && attempt < cutoverReplans && c.allSkippedRetired(dd, report) {
			continue
		}
		break
	}
	if timed {
		elapsed := time.Since(qStart)
		if qs != nil {
			qs.Funnel = funnel
			qs.Elapsed = elapsed
			qs.Attempts = totalAttempts
			qs.Failovers = totalFailovers
		}
		if c.met != nil {
			c.met.searches.Inc()
			c.met.searchLatency.Observe(elapsed.Microseconds())
			c.met.searchFunnel.Record(funnel)
		}
	}
	if report.Partial() && !c.cfg.AllowPartial {
		return nil, report, report.err(fmt.Sprintf("search %q", name))
	}
	return out, report, nil
}

// isPeerUnreachable detects the Ship-side signal for "the destination
// worker is down" so the coordinator fails over to another dst replica
// rather than another src replica. Only an rpc.ServerError that starts
// with the exact prefix Worker.Ship emits (peerUnreachablePrefix,
// worker.go) qualifies — never a substring match, which an unrelated
// application error mentioning the phrase could trip.
func isPeerUnreachable(err error) bool {
	var se rpc.ServerError
	return errors.As(err, &se) && strings.HasPrefix(string(se), peerUnreachablePrefix)
}

// Join computes the distributed similarity join between two dispatched
// datasets. For every candidate partition pair (by endpoint-MBR tests),
// a live replica of the source partition selects and ships its relevant
// trajectories directly to a live replica of the destination partition,
// which runs the local join; pairs flow back through the chain. The
// cheaper direction is chosen per edge by partition size (a size-proxy
// of the paper's cost model; the full sampled model lives in the
// in-process engine). Replica failover applies on both ends of each
// shipment.
//
// Joining a dataset with itself is planned symmetrically, like the
// engine's self-join (core.Engine.JoinPartialContext): each unordered
// partition pair is one edge, a partition's edge with itself runs on one
// live replica of it with nothing shipped, every verified pair crosses the
// wire in one orientation and is returned in both, and an edge lost to
// unreachable replicas is reported against both of its partitions.
func (c *Coordinator) Join(left, right string, tau float64) ([]WirePair, error) {
	pairs, _, err := c.JoinPartialContext(context.Background(), left, right, tau)
	return pairs, err
}

// JoinContext is Join under query-lifecycle control: admission, prompt
// cancellation of the per-edge fan-out, and deadline propagation through
// both hops of each shipment (source selection and destination join).
func (c *Coordinator) JoinContext(ctx context.Context, left, right string, tau float64) ([]WirePair, error) {
	pairs, _, err := c.JoinPartialContext(ctx, left, right, tau)
	return pairs, err
}

// JoinPartial is Join plus the partial-result report: skipped entries
// name exactly the partitions whose every replica was unreachable for
// some shipment. Without AllowPartial a non-empty report is an error.
func (c *Coordinator) JoinPartial(left, right string, tau float64) ([]WirePair, *PartialReport, error) {
	return c.JoinPartialContext(context.Background(), left, right, tau)
}

// JoinPartialContext is JoinContext plus the partial-result report.
// Cancellation is never partial: a done context fails the join with
// ctx.Err() after the fan-out goroutines drain.
func (c *Coordinator) JoinPartialContext(ctx context.Context, left, right string, tau float64) ([]WirePair, *PartialReport, error) {
	return c.JoinTraced(ctx, left, right, tau, nil)
}

// JoinTraced is JoinPartialContext plus per-query observability, the join
// analogue of SearchTraced: one span per shipment edge (source worker,
// attempts across both replica loops, whole-shipment remote time,
// destination-local funnel), plus admission, global-prune, and merge
// spans. In the funnel, Partitions counts possible partition pairs and
// Relevant the bigraph edges that survived MBR pruning.
func (c *Coordinator) JoinTraced(ctx context.Context, left, right string, tau float64, qs *QueryStats) ([]WirePair, *PartialReport, error) {
	report := &PartialReport{}
	var tr *obs.Trace
	if qs != nil {
		tr = qs.Trace
	}
	timed := qs != nil || c.met != nil
	var qStart time.Time
	if timed {
		qStart = time.Now()
	}
	release, err := c.adm.Acquire(ctx)
	if timed {
		wait := time.Since(qStart)
		if qs != nil {
			qs.AdmissionWait = wait
		}
		if c.met != nil {
			c.met.admissionWait.Observe(wait.Microseconds())
		}
		if tr != nil {
			s := obs.Span{Name: "admit", Partition: -1, Start: qStart.Sub(tr.Begin), Duration: wait}
			if err != nil {
				s.Err, s.Class = err.Error(), obs.Classify(err)
			}
			tr.Add(s)
		}
	}
	if err != nil {
		return nil, report, err
	}
	defer release()
	lt, err := c.dataset(left)
	if err != nil {
		return nil, report, err
	}
	rt, err := c.dataset(right)
	if err != nil {
		return nil, report, err
	}
	var gStart time.Time
	if timed {
		gStart = time.Now()
	}
	type edge struct {
		src, dst         int // partition ids in their datasets
		srcName, dstName string
		flip             bool
		// Destination bounds, captured at plan time so concurrent ingests
		// growing them can't tear the relevance check on the workers.
		dstMBRf, dstMBRl geom.MBR
		// mirror: an edge of a self-join, standing for both orientations of
		// its partition pair; diagonal: that pair is one partition twice.
		mirror, diagonal bool
	}
	var edges []edge
	anchored := c.m.AlignsEndpoints()
	maxForm := c.m.Accumulation() == measure.AccumMax
	self := lt == rt
	ltV := lt.boundsView()
	rtV := ltV
	if !self {
		rtV = rt.boundsView()
	}
	for i, pt := range ltV.bounds {
		if pt.Retired {
			continue
		}
		for j, pq := range rtV.bounds {
			if pq.Retired || (self && j < i) {
				continue
			}
			if anchored {
				df := pt.MBRf.MinDistMBR(pq.MBRf)
				dl := pt.MBRl.MinDistMBR(pq.MBRl)
				if maxForm {
					if df > tau || dl > tau {
						continue
					}
				} else if df+dl > tau {
					continue
				}
			}
			// Orientation: ship the smaller side.
			if ltV.trajs[i] <= rtV.trajs[j] {
				edges = append(edges, edge{src: i, dst: j, srcName: left, dstName: right, flip: false,
					dstMBRf: pq.MBRf, dstMBRl: pq.MBRl, mirror: self, diagonal: self && i == j})
			} else {
				edges = append(edges, edge{src: j, dst: i, srcName: right, dstName: left, flip: true,
					dstMBRf: pt.MBRf, dstMBRl: pt.MBRl, mirror: self})
			}
		}
	}
	funnel := obs.Funnel{Partitions: int64(len(ltV.bounds)) * int64(len(rtV.bounds)), Relevant: int64(len(edges))}
	if tr != nil {
		gf := funnel
		tr.Add(obs.Span{Name: "global-prune", Partition: -1,
			Start: gStart.Sub(tr.Begin), Duration: time.Since(gStart), Funnel: &gf})
	}
	replies := make([]JoinReply, len(edges))
	skipped := make([]*SkippedPartition, len(edges))
	attempts := make([]int, len(edges))
	tried := make([]int, len(edges))
	var wg sync.WaitGroup
	for i, ed := range edges {
		wg.Add(1)
		go func(i int, ed edge) {
			defer wg.Done()
			// Unconditional, like the search fan-out: skip reports carry
			// timing even with observability off.
			eStart := time.Now()
			srcDD, dstDD := lt, rt
			if ed.flip {
				srcDD, dstDD = rt, lt
			}
			args := &ShipArgs{
				SrcDataset:   ed.srcName,
				SrcPartition: ed.src,
				DstDataset:   ed.dstName,
				DstPartition: ed.dst,
				DstMBRf:      ed.dstMBRf,
				DstMBRl:      ed.dstMBRl,
				Tau:          tau,
				Flip:         ed.flip,
			}
			if tr != nil {
				args.TraceID, args.SpanID = tr.ID, obs.NewTraceID()
			}
			// One attempt at the edge: the source replica sw selects and
			// ships to the destination replica dw.
			call := func(sw, dw int) (int, error) {
				args.DstAddr, args.TimeoutMillis = c.addrs[dw], remainingMillis(ctx)
				return c.clients[sw].CallContextN(ctx, "Worker.Ship", args, &replies[i])
			}
			if ed.diagonal {
				// A diagonal edge ships nothing: the replica that would
				// select the partition's members joins them in place
				// (Worker.Join on its own view), so its one "destination"
				// is itself.
				jargs := &JoinArgs{Dataset: ed.dstName, Partition: ed.dst, Tau: tau, Diagonal: true,
					TraceID: args.TraceID, SpanID: args.SpanID}
				call = func(sw, _ int) (int, error) {
					jargs.TimeoutMillis = remainingMillis(ctx)
					return c.clients[sw].CallContextN(ctx, "Worker.Join", jargs, &replies[i])
				}
			}
			var lastErr error
			srcReached := false
			for _, sw := range c.replicaOrder(srcDD, ed.src) {
				if err := ctx.Err(); err != nil {
					lastErr = err
					break
				}
				dstDown := false
				dsts := []int{sw}
				if !ed.diagonal {
					dsts = c.replicaOrder(dstDD, ed.dst)
				}
				for _, dw := range dsts {
					// Same rule as the search fan-out: a dead query stops
					// consuming replica attempts immediately.
					if err := ctx.Err(); err != nil {
						lastErr = err
						break
					}
					replies[i] = JoinReply{}
					tried[i]++
					n, err := call(sw, dw)
					attempts[i] += n
					if err == nil {
						c.health.success(sw)
						if tr != nil {
							f := replies[i].Funnel
							tr.Add(obs.Span{Name: "edge-join",
								Worker:    c.addrs[sw] + ">" + c.addrs[dw],
								Partition: ed.dst, Attempts: attempts[i],
								Start: eStart.Sub(tr.Begin), Duration: time.Since(eStart),
								Remote: time.Duration(replies[i].ElapsedMicros) * time.Microsecond,
								Probe:  time.Duration(replies[i].ProbeMicros) * time.Microsecond,
								Verify: time.Duration(replies[i].VerifyMicros) * time.Microsecond,
								Funnel: &f})
						}
						return
					}
					lastErr = err
					if ctx.Err() != nil {
						break
					}
					if isPeerUnreachable(err) {
						// The src worker answered; the dst replica is
						// down. Try the next dst replica.
						srcReached = true
						c.health.failure(dw, false)
						dstDown = true
						continue
					}
					if retryableError(err) {
						// The src replica itself failed at the transport
						// level; move on to the next src replica.
						c.health.failure(sw, false)
					} else {
						// Application-level refusal: the src worker is
						// alive, it just can't serve this partition. Try
						// the next src replica without penalizing it.
						c.health.success(sw)
					}
					break
				}
				if dstDown && srcReached {
					// Every dst replica refused this reachable src;
					// other src replicas would see the same thing.
					break
				}
			}
			if lastErr == nil {
				// A replica list was drained to empty by healing, so the
				// loops had nothing to try. Attribute the side with no
				// replicas left.
				if len(c.replicaOrder(dstDD, ed.dst)) == 0 && len(c.replicaOrder(srcDD, ed.src)) > 0 {
					srcReached = true
					lastErr = fmt.Errorf("dnet: no replicas for partition %s/%d", ed.dstName, ed.dst)
				} else {
					lastErr = fmt.Errorf("dnet: no replicas for partition %s/%d", ed.srcName, ed.src)
				}
			}
			elapsed := time.Since(eStart)
			class := obs.Classify(lastErr)
			// Attribute the skip: if no src replica ever answered, the
			// src partition is down; otherwise the dst partition is.
			if srcReached {
				skipped[i] = &SkippedPartition{Dataset: ed.dstName, Partition: ed.dst, Err: lastErr.Error(),
					Attempts: attempts[i], Elapsed: elapsed, Class: class}
			} else {
				skipped[i] = &SkippedPartition{Dataset: ed.srcName, Partition: ed.src, Err: lastErr.Error(),
					Attempts: attempts[i], Elapsed: elapsed, Class: class}
			}
			if tr != nil {
				tr.Add(obs.Span{Name: "edge-join", Partition: ed.dst,
					Attempts: attempts[i], Start: eStart.Sub(tr.Begin), Duration: elapsed,
					Err: lastErr.Error(), Class: class})
			}
		}(i, ed)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, report, err
	}
	mergeDone := tr.StartSpan("merge", -1)
	total := 0
	for i, ed := range edges {
		if n := len(replies[i].Pairs); ed.mirror {
			total += 2 * n
		} else {
			total += n
		}
	}
	pairs := make([]WirePair, 0, total)
	seen := map[SkippedPartition]bool{}
	for i, ed := range edges {
		c.met.recordRetries(attempts[i], tried[i])
		if sk := skipped[i]; sk != nil {
			// A mirror edge's pairs have their T in either partition: both
			// are missing answers, whichever side was unreachable.
			lost := []int{sk.Partition}
			if ed.mirror {
				lost = []int{ed.src, ed.dst}
			}
			for _, pid := range lost {
				key := SkippedPartition{Dataset: sk.Dataset, Partition: pid}
				if !seen[key] {
					seen[key] = true
					entry := *sk
					entry.Partition = pid
					report.Skipped = append(report.Skipped, entry)
					c.met.recordSkip(sk.Class)
				}
			}
			continue
		}
		funnel.Merge(replies[i].Funnel)
		pairs = append(pairs, replies[i].Pairs...)
		if ed.mirror {
			// Ids are unique within a dispatched dataset (Dispatch rejects
			// duplicates), so equal ids are a member paired with itself.
			for _, p := range replies[i].Pairs {
				if p.TID != p.QID {
					pairs = append(pairs, WirePair{TID: p.QID, QID: p.TID, Distance: p.Distance})
				}
			}
		}
	}
	sort.Slice(report.Skipped, func(a, b int) bool {
		if report.Skipped[a].Dataset != report.Skipped[b].Dataset {
			return report.Skipped[a].Dataset < report.Skipped[b].Dataset
		}
		return report.Skipped[a].Partition < report.Skipped[b].Partition
	})
	pairs = core.SortByIDPair(pairs, func(p *WirePair) (int, int) { return p.TID, p.QID })
	mergeDone(nil)
	if timed {
		elapsed := time.Since(qStart)
		if qs != nil {
			qs.Funnel = funnel
			qs.Elapsed = elapsed
			for i := range edges {
				qs.Attempts += attempts[i]
				if tried[i] > 1 {
					qs.Failovers += tried[i] - 1
				}
			}
		}
		if c.met != nil {
			c.met.joins.Inc()
			c.met.joinLatency.Observe(elapsed.Microseconds())
			c.met.joinFunnel.Record(funnel)
		}
	}
	if report.Partial() && !c.cfg.AllowPartial {
		return nil, report, report.err(fmt.Sprintf("join %q⋈%q", left, right))
	}
	return pairs, report, nil
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
