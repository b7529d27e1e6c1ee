package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"dita/internal/cluster"
	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/obs"
	"dita/internal/str"
	"dita/internal/traj"
	"dita/internal/trie"
)

// Options configures an Engine.
type Options struct {
	// NG is the global grid factor: trajectories are STR-grouped by first
	// point into NG buckets and each bucket by last point into NG
	// sub-buckets, giving up to NG² partitions (Section 4.2.1; Table 3
	// uses 32–256, scaled down here).
	NG int
	// Trie configures each partition's local index.
	Trie trie.Config
	// Measure is the similarity function; DTW when nil.
	Measure measure.Measure
	// Cluster is the execution substrate; a fresh 4-worker cluster is
	// created when nil.
	Cluster *cluster.Cluster
	// RandomPartition disables the first/last STR partitioning and
	// scatters trajectories round-robin — the "Random" ablation of
	// Appendix B (Figure 13). The index structures are still built.
	RandomPartition bool
	// Obs, when non-nil, receives engine metrics: query counters, latency
	// histograms, and the cumulative pruning funnel per query path. Nil
	// disables all recording including the per-query clock reads.
	Obs *obs.Registry
	// VerifyParallelism bounds the worker pool that verifies a partition's
	// candidate list concurrently: 0 (the default) uses every core
	// (runtime.GOMAXPROCS), 1 forces the sequential path, and any other
	// value caps the fan-out. Results and pruning funnels are identical
	// at every setting; only wall-clock changes.
	VerifyParallelism int
}

// DefaultOptions returns laptop-scale defaults: NG=8 (64 partitions),
// default trie config, DTW.
func DefaultOptions() Options {
	return Options{NG: 8, Trie: trie.DefaultConfig(), Measure: measure.DTW{}}
}

// Partition is one data partition: its store — the members, the local trie
// (Trajs and Index are the store's base), the ingest overlay and the log.
// MBRf, MBRl and Retired are read-only mirrors of its Layout entry, kept for
// callers outside core.
type Partition struct {
	ID     int
	Worker int
	MBRf   geom.MBR // MBR of members' first points
	MBRl   geom.MBR // MBR of members' last points
	*Store

	retired bool
}

// Retired reports whether the partition was emptied by a split/merge: it
// keeps its slot (ids key WAL and snapshot files) and holds nothing.
func (p *Partition) Retired() bool { return p.retired }

// Engine is a built DITA index over one dataset, ready to serve searches
// and act as a join side.
type Engine struct {
	opts    Options
	cl      *cluster.Cluster
	dataset *traj.Dataset
	parts   []*Partition
	lay     *Layout        // the global index, routing, seq and epochs, indexed like parts
	met     *engineMetrics // nil when Options.Obs is nil
	cost    *CostTracker   // per-partition read-cost EWMAs (timed paths only)

	// mu is the host lock of parts, of the partitions' stores (Store) and
	// of lay: every applied mutation, installed fold and layout change is
	// published under the write side, and a query takes the read side only
	// to capture its views (capture) — the layout, the partition slice and
	// the view of every partition it may read, in one hold, so what it sees
	// of every partition and of the layout is one instant. It plans,
	// descends, verifies and merges off the lock, so a write waits for other
	// captures, never for a query. serial orders lock acquisition when a
	// join spans two engines.
	mu     sync.RWMutex
	serial uint64
	ing    *ingestState // nil until EnableIngest

	// BuildTime is the wall-clock index construction time (Table 5).
	BuildTime time.Duration
}

// engineSerial hands out lock-ordering serials; see rlockPair.
var engineSerial atomic.Uint64

// rlockPair read-locks both engines of a two-engine operation in serial
// order (one lock when they are the same engine), returning the unlock.
// Consistent ordering prevents the classic AB/BA deadlock with a writer
// wedged between two readers.
func rlockPair(a, b *Engine) func() {
	if a == b {
		a.mu.RLock()
		return a.mu.RUnlock
	}
	if a.serial > b.serial {
		a, b = b, a
	}
	a.mu.RLock()
	b.mu.RLock()
	return func() {
		b.mu.RUnlock()
		a.mu.RUnlock()
	}
}

// engineView is one query's capture of an engine: the layout, the
// partition slice and the view of every partition the query may read, all
// taken in one hold of mu's read side. The query reads the engine only
// through it once the lock is released: of a Partition, its ID and Worker,
// which never change, and never its Store, which a cutover swaps. Views
// are immutable (Store.View copies the overlay and the masks; a fold or a
// cutover installs new slices), so the capture stays one instant however
// long the query runs.
type engineView struct {
	lay   *LayoutView
	parts []*Partition
	// views[i] is the view of partition pids[i] or, when pids is nil, of
	// partition i: every live partition, a retired one's left empty.
	pids  []int
	views []View
}

// capture is the one place a query takes mu's read side: it captures e
// and, for a join, other (rlockPair orders the two locks) in one hold.
// pick, given e's layout, names the partitions of e to capture, ascending;
// nil captures every live one, and other is always captured whole. For
// other == e both results are the one capture. Planning that must agree
// with the views (a search's global prune) runs in pick, under the lock.
func (e *Engine) capture(other *Engine, pick func(*LayoutView) []int) (mine, theirs engineView) {
	unlock := rlockPair(e, other)
	defer unlock()
	mine = e.captureLocked(pick)
	if other == e {
		return mine, mine
	}
	return mine, other.captureLocked(nil)
}

func (e *Engine) captureLocked(pick func(*LayoutView) []int) engineView {
	ev := engineView{lay: e.lay.View(), parts: e.parts}
	if pick != nil {
		ev.pids = pick(ev.lay)
		ev.views = make([]View, len(ev.pids))
		for i, pid := range ev.pids {
			ev.views[i] = e.parts[pid].view()
		}
		return ev
	}
	ev.views = make([]View, len(e.parts))
	for pid, b := range ev.lay.Bounds {
		if !b.Retired {
			ev.views[pid] = e.parts[pid].view()
		}
	}
	return ev
}

// NewEngine partitions and indexes the dataset (Algorithm 1). It is the
// CREATE INDEX ... USE TRIE operation.
//
// The engine adopts d's members, as a worker adopts the members of an image
// it decodes: before a partition's trie is built, its members' points are
// moved into one slab in slot order, and each member's Points is re-pointed
// at its own window of it — the same values, capped at its own length. The
// caller's scattered arrays become garbage; there is never a second copy.
// Members whose points already lie back-to-back in slot order are not
// written, so a second engine over the same members and grouping, or over
// a decoded image, writes nothing. The caller therefore must not read or
// write a member's Points concurrently with NewEngine, and must not write
// it afterwards (members are immutable from the build on, DESIGN.md §10).
func NewEngine(d *traj.Dataset, opts Options) (*Engine, error) {
	if d == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	if opts.NG < 1 {
		opts.NG = 1
	}
	if opts.Measure == nil {
		opts.Measure = measure.DTW{}
	}
	if opts.Cluster == nil {
		opts.Cluster = cluster.New(cluster.DefaultConfig(4))
	}
	e := &Engine{opts: opts, cl: opts.Cluster, dataset: d, met: newEngineMetrics(opts.Obs),
		cost: NewCostTracker(), serial: engineSerial.Add(1)}
	start := time.Now()
	groups := e.partition()
	e.addPartitions(groups)
	e.buildStores(func(pid int) *Store {
		adopt(groups[pid])
		return NewStore(opts.Trie, groups[pid], nil, 0)
	})
	e.BuildTime = time.Since(start)
	return e, nil
}

// partition returns the partitions' member groups in partition id order:
// STRGroups, or round-robin for the Random ablation.
func (e *Engine) partition() [][]*traj.T {
	trajs := e.dataset.Trajs
	if !e.opts.RandomPartition {
		return STRGroups(trajs, e.opts.NG)
	}
	n := min(e.opts.NG*e.opts.NG, len(trajs))
	if n < 1 {
		n = 1
	}
	groups := make([][]*traj.T, n)
	for i, t := range trajs {
		groups[i%n] = append(groups[i%n], t)
	}
	return slices.DeleteFunc(groups, func(g []*traj.T) bool { return len(g) == 0 })
}

// STRGroups is Algorithm 1's partitioning (Section 4.2.1): STR by first
// point into ng tiles, then STR by last point into ng sub-tiles per tile.
// It returns the non-empty groups in partition id order, each in tile
// order. Both hosts partition a dataset with it.
func STRGroups(trajs []*traj.T, ng int) [][]*traj.T {
	firsts := make([]geom.Point, len(trajs))
	for i, t := range trajs {
		firsts[i] = t.First()
	}
	var groups [][]*traj.T
	for _, tile := range str.Tile(firsts, ng) {
		lasts := make([]geom.Point, len(tile))
		for j, i := range tile {
			lasts[j] = trajs[i].Last()
		}
		for _, sub := range str.Tile(lasts, ng) {
			group := make([]*traj.T, len(sub))
			for j, k := range sub {
				group[j] = trajs[tile[k]]
			}
			groups = append(groups, group)
		}
	}
	return groups
}

// addPartitions makes one partition per group, their stores left to
// buildStores, and the layout over them (Section 4.2.2). The global index is
// small (Table 5: ≤ 65 MB even at NG=128) and conceptually replicated to
// every worker; the engine keeps one copy.
func (e *Engine) addPartitions(groups [][]*traj.T) {
	W := e.cl.Workers()
	for pid := range groups {
		e.parts = append(e.parts, &Partition{ID: pid, Worker: pid % W})
	}
	e.lay = LayoutOf(groups)
	e.mirror()
}

// mirror rewrites the partitions' mirrors of the layout, writing only what
// changed. Callers hold mu for writing (or own the engine alone).
func (e *Engine) mirror() {
	for pid, p := range e.parts {
		b := e.lay.bounds[pid]
		if p.MBRf != b.MBRf || p.MBRl != b.MBRl {
			p.MBRf, p.MBRl = b.MBRf, b.MBRl
		}
		if p.retired != b.Retired {
			p.retired = b.Retired
		}
	}
}

// buildStores makes each partition's store — its trie, unless build brings
// one, and its verification metadata — in parallel on the owning workers.
func (e *Engine) buildStores(build func(pid int) *Store) {
	tasks := make([]cluster.Task, 0, len(e.parts))
	for _, p := range e.parts {
		tasks = append(tasks, cluster.Task{Worker: p.Worker, Fn: func() { p.Store = build(p.ID) }})
	}
	e.cl.Run(tasks)
}

// adopt lays members' points out in one slab in slot order, as
// snap.decodeTrajs carves an image: each member's Points becomes its own
// window of the slab, a three-index slice capped at its length. A verifier
// then walks one partition's points in one allocation instead of wherever
// the caller's allocator put them. It writes nothing when the points
// already lie back-to-back in slot order. Only NewEngine adopts: a fold or
// a rebalance piece aliases members a live base still serves.
func adopt(members []*traj.T) {
	if packed(members) {
		return
	}
	n := 0
	for _, t := range members {
		n += len(t.Points)
	}
	slab := make([]geom.Point, n)
	for _, t := range members {
		k := copy(slab, t.Points)
		t.Points, slab = slab[:k:k], slab[k:]
	}
}

// packed reports whether every member's Points is capped at its length and
// ends where the next member's begins.
func packed(members []*traj.T) bool {
	const size = unsafe.Sizeof(geom.Point{})
	for i, t := range members {
		if len(t.Points) == 0 || cap(t.Points) != len(t.Points) {
			return false
		}
		if i > 0 {
			prev := members[i-1].Points
			end := uintptr(unsafe.Pointer(unsafe.SliceData(prev))) + uintptr(len(prev))*size
			if end != uintptr(unsafe.Pointer(unsafe.SliceData(t.Points))) {
				return false
			}
		}
	}
	return true
}

// Partitions returns the engine's partitions (read-only use).
func (e *Engine) Partitions() []*Partition { return e.parts }

// Cluster returns the execution substrate.
func (e *Engine) Cluster() *cluster.Cluster { return e.cl }

// Measure returns the engine's similarity function.
func (e *Engine) Measure() measure.Measure { return e.opts.Measure }

// Dataset returns the indexed dataset.
func (e *Engine) Dataset() *traj.Dataset { return e.dataset }

// CellD returns 0. It stays for callers compiled against the surface of the
// retired Lemma 5.6 filter, which pass it on to NewVerifyMeta and
// NewVerifier; both ignore it, and neither the engine nor its snapshots
// record a cell side any more.
func (e *Engine) CellD() float64 { return 0 }

// VerifyParallelism returns the engine's resolved verification fan-out
// (Options.VerifyParallelism with 0 mapped to runtime.GOMAXPROCS).
func (e *Engine) VerifyParallelism() int { return ResolveParallelism(e.opts.VerifyParallelism) }

// IndexSizeBytes returns (globalBytes, localBytes) — Table 5's "Global
// Size" and "Local Size".
func (e *Engine) IndexSizeBytes() (global, local int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	v := e.lay.View()
	global = v.RtF.SizeBytes() + v.RtL.SizeBytes()
	for _, p := range e.parts {
		if p.Index != nil {
			local += p.Index.SizeBytes()
		}
	}
	return global, local
}

// RelevantPartitions reports, ascending, the partitions the engine's global
// pruning cannot exclude for a threshold search at tau — the touched set a
// cached search answer depends on (see Epochs).
func (e *Engine) RelevantPartitions(q []geom.Point, tau float64) []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.lay.View().Relevant(e.opts.Measure, q, tau)
}

// Epochs snapshots the engine's write epochs (EpochView). A caller caching
// a query's answer takes them BEFORE running the query: a write landing in
// between then makes the entry look stale (safe), never fresh.
func (e *Engine) Epochs() EpochView {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.lay.View().Epochs
}
