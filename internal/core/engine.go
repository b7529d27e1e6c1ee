package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dita/internal/cluster"
	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/obs"
	"dita/internal/rtree"
	"dita/internal/str"
	"dita/internal/traj"
	"dita/internal/trie"
	"dita/internal/wal"
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

// Partition is one data partition: its trajectories, local trie index, and
// the first/last-point MBRs the global index stores.
type Partition struct {
	ID     int
	Worker int
	Trajs  []*traj.T
	Index  *trie.Trie
	MBRf   geom.MBR // MBR of members' first points
	MBRl   geom.MBR // MBR of members' last points
	meta   []trajMeta
	bytes  int

	// retired marks a partition whose contents were moved to newer
	// partitions by a split/merge (see rebalance.go). Retired partitions
	// stay in the slice — partition ids are stable (they key WAL and
	// snapshot filenames, location maps, and the dnet replica lists) —
	// but hold no data and are skipped by every query and routing path.
	retired bool

	// Streaming-ingest overlay (all nil/zero until EnableIngest; see
	// ingest.go): delta holds live inserts since the last merge, frozen
	// the rotated delta an in-flight merge is folding, tomb the ids whose
	// base/frozen copies are masked by deletes or upserts, frozenTomb the
	// pre-rotation masks the fold consumes (they mask base only),
	// baseIdx an id → Trajs index for partition-local upsert detection,
	// watermark the highest WAL sequence folded into Trajs, and wlog the
	// partition's write-ahead log.
	delta      *Delta
	frozen     *Delta
	tomb       map[int]bool
	frozenTomb map[int]bool
	baseIdx    map[int]int
	watermark  uint64
	wlog       *wal.Log

	// imu serializes this partition's WAL appends with their in-memory
	// application, so the fsync can run outside Engine.mu (queries and
	// other partitions' mutations proceed during the disk wait) while the
	// log's record order still equals the apply order. Lock order: imu
	// before Engine.mu, never the reverse.
	imu sync.Mutex
}

// Bytes returns the approximate wire size of the partition's trajectory
// data.
func (p *Partition) Bytes() int { return p.bytes }

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

	// mu serializes mutations (Insert/Delete/merge rotation) against
	// queries: every public query path holds the read side for its whole
	// run, so overlay state and partition MBRs are stable per query.
	// serial orders lock acquisition when a join spans two engines.
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
	e.partition()
	e.buildGlobalIndex()
	e.buildLocalIndexes()
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
// then STR by last point into NG sub-buckets per bucket.
func (e *Engine) partition() {
	trajs := e.dataset.Trajs
	W := e.cl.Workers()
	if e.opts.RandomPartition {
		n := e.opts.NG * e.opts.NG
		if n > len(trajs) {
			n = len(trajs)
		}
		if n < 1 {
			n = 1
		}
		groups := make([][]*traj.T, n)
		for i, t := range trajs {
			groups[i%n] = append(groups[i%n], t)
		}
		for _, g := range groups {
			if len(g) == 0 {
				continue
			}
			e.addPartition(g, W)
		}
		return
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
			e.addPartition(group, W)
		}
	}
}

func (e *Engine) addPartition(group []*traj.T, workers int) {
	p := &Partition{ID: len(e.parts), Trajs: group}
	p.Worker = p.ID % workers
	p.MBRf, p.MBRl = geom.EmptyMBR(), geom.EmptyMBR()
	for _, t := range group {
		p.MBRf = p.MBRf.Extend(t.First())
		p.MBRl = p.MBRl.Extend(t.Last())
		p.bytes += t.Bytes()
	}
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

// buildLocalIndexes builds each partition's trie and verification metadata
// in parallel on the owning workers.
func (e *Engine) buildLocalIndexes() {
	tasks := make([]cluster.Task, 0, len(e.parts))
	for _, p := range e.parts {
		p := p
		tasks = append(tasks, cluster.Task{Worker: p.Worker, Fn: func() {
			p.Index = trie.Build(p.Trajs, e.opts.Trie)
			p.meta = make([]trajMeta, len(p.Trajs))
			for i, t := range p.Trajs {
				p.meta[i] = newTrajMeta(t)
			}
		}})
	}
	e.cl.Run(tasks)
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
