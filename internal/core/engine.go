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
	"dita/internal/rtree"
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
	// CellD is the cell side length of the retired Lemma 5.6 filter; <= 0
	// derives it from the data extent (1% of the larger dimension).
	// Nothing reads it on a query path any more: it is carried because
	// the snapshot format and fingerprint record it (ROADMAP item 4c).
	CellD float64
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
// (Trajs and Index are the store's base), the ingest overlay and the log —
// and the first/last-point MBRs the global index stores, which the engine
// keeps covering every visible member.
type Partition struct {
	ID     int
	Worker int
	MBRf   geom.MBR // MBR of members' first points
	MBRl   geom.MBR // MBR of members' last points
	*Store

	// retired marks a partition whose contents were moved to newer
	// partitions by a split/merge (see rebalance.go). Retired partitions
	// stay in the slice — partition ids are stable (they key WAL and
	// snapshot filenames, location maps, and the dnet replica lists) —
	// but hold no data and are skipped by every query and routing path.
	retired bool
}

// Retired reports whether the partition was emptied by a split/merge.
func (p *Partition) Retired() bool { return p.retired }

// Engine is a built DITA index over one dataset, ready to serve searches
// and act as a join side.
type Engine struct {
	opts    Options
	cl      *cluster.Cluster
	dataset *traj.Dataset
	parts   []*Partition
	rtF     *rtree.Tree  // global index over partition MBRf
	rtL     *rtree.Tree  // global index over partition MBRl
	bounds  []PartBounds // what rtF and rtL were built over, indexed like parts
	cellD   float64
	met     *engineMetrics // nil when Options.Obs is nil
	cost    *CostTracker   // per-partition read-cost EWMAs (timed paths only)

	// mu is the host lock of the partitions' stores (Store): every public
	// query path holds the read side for its whole run, and every applied
	// mutation and installed fold is published under the write side, so what
	// a query sees of every partition and of the partition MBRs is one
	// instant. serial orders lock acquisition when a join spans two engines.
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

// visibleCount is the number of currently visible trajectories: the
// dataset size until ingest is enabled, the live location map after.
// Callers hold mu.
func (e *Engine) visibleCount() int {
	if e.ing == nil {
		return e.dataset.Len()
	}
	return len(e.ing.loc)
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
	e.cellD = opts.CellD
	if e.cellD <= 0 {
		e.cellD = defaultCellD(d)
	}
	groups := e.partition()
	W := e.cl.Workers()
	for _, g := range groups {
		e.addPartition(g, W)
	}
	e.buildGlobalIndex()
	e.buildStores(func(pid int) *Store {
		adopt(groups[pid])
		return NewStore(opts.Trie, groups[pid], nil, 0)
	})
	e.BuildTime = time.Since(start)
	return e, nil
}

// defaultCellD picks a cell side length from the data extent: 1% of the
// larger dimension.
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

// partition implements Section 4.2.1: STR by first point into NG buckets,
// then STR by last point into NG sub-buckets per bucket. It returns the
// partitions' member groups in partition id order.
func (e *Engine) partition() [][]*traj.T {
	trajs := e.dataset.Trajs
	var groups [][]*traj.T
	if e.opts.RandomPartition {
		n := e.opts.NG * e.opts.NG
		if n > len(trajs) {
			n = len(trajs)
		}
		if n < 1 {
			n = 1
		}
		groups = make([][]*traj.T, n)
		for i, t := range trajs {
			groups[i%n] = append(groups[i%n], t)
		}
		return slices.DeleteFunc(groups, func(g []*traj.T) bool { return len(g) == 0 })
	}
	firsts := make([]geom.Point, len(trajs))
	for i, t := range trajs {
		firsts[i] = t.First()
	}
	for _, bucket := range str.Tile(firsts, e.opts.NG) {
		lasts := make([]geom.Point, len(bucket))
		for j, i := range bucket {
			lasts[j] = trajs[i].Last()
		}
		for _, sub := range str.Tile(lasts, e.opts.NG) {
			group := make([]*traj.T, len(sub))
			for j, k := range sub {
				group[j] = trajs[bucket[k]]
			}
			groups = append(groups, group)
		}
	}
	return groups
}

// addPartition appends a partition over group, its bounds computed and its
// store left to buildStores.
func (e *Engine) addPartition(group []*traj.T, workers int) {
	p := &Partition{ID: len(e.parts)}
	p.Worker = p.ID % workers
	p.MBRf, p.MBRl = EndpointBounds(group)
	e.parts = append(e.parts, p)
}

// buildGlobalIndex builds the two R-trees over partition MBRs
// (Section 4.2.2) and the bounds they index. The global index is small
// (Table 5: ≤ 65 MB even at NG=128) and conceptually replicated to every
// worker; it lives on the driver here. Every change to a partition's boxes
// or to the partition list is followed by a rebuild under mu, so queries
// prune against one consistent snapshot.
func (e *Engine) buildGlobalIndex() {
	ef := make([]rtree.Entry, 0, len(e.parts))
	el := make([]rtree.Entry, 0, len(e.parts))
	e.bounds = make([]PartBounds, len(e.parts))
	for i, p := range e.parts {
		e.bounds[i] = PartBounds{MBRf: p.MBRf, MBRl: p.MBRl, Retired: p.retired}
		if p.retired {
			continue
		}
		ef = append(ef, rtree.Entry{MBR: p.MBRf, ID: p.ID})
		el = append(el, rtree.Entry{MBR: p.MBRl, ID: p.ID})
	}
	e.rtF = rtree.New(ef)
	e.rtL = rtree.New(el)
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

// CellD returns the cell side length recorded in the engine's snapshots
// (see Options.CellD).
func (e *Engine) CellD() float64 { return e.cellD }

// VerifyParallelism returns the engine's resolved verification fan-out
// (Options.VerifyParallelism with 0 mapped to runtime.GOMAXPROCS).
func (e *Engine) VerifyParallelism() int { return ResolveParallelism(e.opts.VerifyParallelism) }

// IndexSizeBytes returns (globalBytes, localBytes) — Table 5's "Global
// Size" and "Local Size".
func (e *Engine) IndexSizeBytes() (global, local int) {
	global = e.rtF.SizeBytes() + e.rtL.SizeBytes()
	for _, p := range e.parts {
		if p.Index != nil {
			local += p.Index.SizeBytes()
		}
	}
	return global, local
}

// relevantPartitions is the global pruning of a threshold search over the
// engine's global index. Callers hold mu.
func (e *Engine) relevantPartitions(q []geom.Point, tau float64) []int {
	return RelevantPartitions(e.opts.Measure, e.rtF, e.rtL, e.bounds, q, tau)
}
