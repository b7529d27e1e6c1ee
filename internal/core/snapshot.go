package core

import (
	"fmt"
	"sort"
	"time"

	"dita/internal/cluster"
	"dita/internal/measure"
	"dita/internal/pivot"
	"dita/internal/snap"
	"dita/internal/traj"
	"dita/internal/trie"
)

// MeasureParams inverts measure.ByName: it extracts the (name, eps, delta)
// triple that reconstructs m. This is what snapshots persist instead of the
// interface value.
func MeasureParams(m measure.Measure) (name string, eps float64, delta int) {
	name, eps = m.Name(), m.Epsilon()
	if l, ok := m.(measure.LCSS); ok {
		delta = l.Delta
	}
	return name, eps, delta
}

// SnapshotOptions returns the snap.BuildOptions equivalent of the engine's
// build configuration — everything a cold start needs to reproduce this
// engine's behavior exactly.
func (e *Engine) SnapshotOptions() snap.BuildOptions {
	name, eps, delta := MeasureParams(e.opts.Measure)
	return snap.BuildOptions{
		Measure:  name,
		Eps:      eps,
		Delta:    delta,
		K:        e.opts.Trie.K,
		NLAlign:  e.opts.Trie.NLAlign,
		NLPivot:  e.opts.Trie.NLPivot,
		MinNode:  e.opts.Trie.MinNode,
		Strategy: int(e.opts.Trie.Strategy),
		CellD:    e.cellD,
	}
}

// ExportSnapshot wraps one built partition as a snapshot. The snapshot
// shares the partition's trajectory slice and trie; callers must not
// mutate either. Only the sealed base is exported — overlay state (see
// ingest.go) lives in the partition's WAL, which the snapshot's
// watermark delimits.
func (e *Engine) ExportSnapshot(dataset string, p *Partition) *snap.Snapshot {
	return e.named(p.BaseImage(), dataset, p.ID)
}

// named labels a store's image as this engine's partition pid of dataset.
func (e *Engine) named(img *snap.Snapshot, dataset string, pid int) *snap.Snapshot {
	img.Dataset, img.Partition, img.Opts = dataset, pid, e.SnapshotOptions()
	return img
}

// NewEngineFromSnapshots cold-starts an engine from decoded partition
// snapshots instead of partitioning and indexing a dataset: the tries come
// from the snapshots; only the cheap derived state (endpoint MBRs, the
// global R-trees, verification metadata) is recomputed. The snapshot set
// must be complete — partition ids 0..n-1 of one dataset with identical
// build options — because the global index is only correct over all
// partitions.
//
// opts supplies the runtime environment (Cluster, Obs, VerifyParallelism);
// the indexing configuration (measure, trie shape, cell size) is taken
// from the snapshots so the cold-started engine answers queries exactly
// like the engine that wrote them. BuildTime records the cold-start time.
func NewEngineFromSnapshots(snaps []*snap.Snapshot, opts Options) (*Engine, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("core: no snapshots")
	}
	sorted := append([]*snap.Snapshot(nil), snaps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Partition < sorted[j].Partition })
	ref := sorted[0]
	for i, s := range sorted {
		if s.Dataset != ref.Dataset {
			return nil, fmt.Errorf("core: snapshots span datasets %q and %q", ref.Dataset, s.Dataset)
		}
		if s.Opts != ref.Opts {
			return nil, fmt.Errorf("core: partition %d built with different options", s.Partition)
		}
		if s.Partition != i {
			return nil, fmt.Errorf("core: snapshot set incomplete: missing partition %d", i)
		}
		if s.Index == nil {
			return nil, fmt.Errorf("core: partition %d snapshot has no index", s.Partition)
		}
	}

	m, err := measure.ByName(ref.Opts.Measure, ref.Opts.Eps, ref.Opts.Delta)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot measure: %w", err)
	}
	opts.Measure = m
	opts.Trie = trie.Config{
		K:        ref.Opts.K,
		NLAlign:  ref.Opts.NLAlign,
		NLPivot:  ref.Opts.NLPivot,
		MinNode:  ref.Opts.MinNode,
		Strategy: pivot.Strategy(ref.Opts.Strategy),
	}
	opts.CellD = ref.Opts.CellD
	if opts.Cluster == nil {
		opts.Cluster = cluster.New(cluster.DefaultConfig(4))
	}

	start := time.Now()
	var all []*traj.T
	for _, s := range sorted {
		all = append(all, s.Trajs...)
	}
	e := &Engine{
		opts:    opts,
		cl:      opts.Cluster,
		dataset: traj.NewDataset(ref.Dataset, all),
		cellD:   ref.Opts.CellD,
		met:     newEngineMetrics(opts.Obs),
		cost:    NewCostTracker(),
		serial:  engineSerial.Add(1),
	}
	W := e.cl.Workers()
	for _, s := range sorted {
		e.addPartition(s.Trajs, W)
	}
	e.buildGlobalIndex()
	// The stores take the snapshots' tries and recompute the verification
	// metadata, which is derived state (not serialized, by design: core may
	// not be imported by snap), in parallel like a fresh build does.
	e.buildStores(func(pid int) *Store {
		s := sorted[pid]
		return NewStore(opts.Trie, s.Trajs, s.Index, s.Watermark)
	})
	e.BuildTime = time.Since(start)
	return e, nil
}
