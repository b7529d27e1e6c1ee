package core_test

import (
	"testing"

	"dita/internal/cluster"
	"dita/internal/core"
	"dita/internal/gen"
	"dita/internal/measure"
	"dita/internal/snap"
	"dita/internal/traj"
	"dita/internal/viewtest"
)

// onePartition builds an ingest-enabled engine holding members as its only
// partition, and returns the partition's base in the engine's order.
func onePartition(t *testing.T, m measure.Measure, members []*traj.T) (*core.Engine, []*traj.T) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.NG, opts.Measure, opts.Cluster = 1, m, cluster.New(cluster.DefaultConfig(1))
	opts.Trie.MinNode = 4
	e, err := core.NewEngine(traj.NewDataset("view", members), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnableIngest(core.IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	if len(e.Partitions()) != 1 {
		t.Fatalf("%d partitions, want 1", len(e.Partitions()))
	}
	return e, e.Partitions()[0].Trajs
}

// decodedPartition is onePartition cold-started from its own sealed image:
// the base members are the image's, not the caller's members the build
// adopted.
func decodedPartition(t *testing.T, m measure.Measure, members []*traj.T) (*core.Engine, []*traj.T) {
	t.Helper()
	built, _ := onePartition(t, m, members)
	img, err := snap.Decode(snap.Encode(built.ExportSnapshot("view", built.Partitions()[0])))
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngineFromSnapshots([]*snap.Snapshot{img}, core.Options{Cluster: cluster.New(cluster.DefaultConfig(1))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnableIngest(core.IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	return e, e.Partitions()[0].Trajs
}

func apply(t *testing.T, e *core.Engine, ops []viewtest.Op) {
	t.Helper()
	for _, op := range ops {
		var err error
		if op.T != nil {
			err = e.Insert(op.T)
		} else {
			_, err = e.Delete(op.ID)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestViewAcrossHosts, engine half (internal/dnet has the worker's): after
// each history the partition's view shows exactly the model's members in
// the model's slot order, and every read over it is brute force's — over a
// base built from the caller's members and over one decoded from an image,
// before the overlay is merged into it and after.
func TestViewAcrossHosts(t *testing.T) {
	base, fresh, queries := viewtest.Fixture()
	hosts := map[string]func(*testing.T, measure.Measure, []*traj.T) (*core.Engine, []*traj.T){
		"built": onePartition, "decoded": decodedPartition,
	}
	for _, m := range viewtest.Measures(t) {
		for _, h := range viewtest.Histories(base, fresh) {
			for host, start := range hosts {
				t.Run(m.Name()+"/"+h.Name+"/"+host, func(t *testing.T) {
					e, base := start(t, m, base)
					apply(t, e, h.Ops)
					v, _ := core.PartitionView(e, 0)
					viewtest.Check(t, m, v, h.Visible(base), queries)
					if _, err := e.MergePartition(0); err != nil {
						t.Fatal(err)
					}
					v, _ = core.PartitionView(e, 0)
					viewtest.Check(t, m, v, h.Visible(base), queries)
				})
			}
		}
	}
}

// The overlay mid-merge (viewtest.MidMerge): a frozen delta being folded
// (one member of it superseded since, one deleted), the masks the fold
// consumes, and behind them a new delta and new tombstones — held open by
// the store's fold hook. internal/dnet runs the same shape on a worker.
func TestViewMidMerge(t *testing.T) {
	base, fresh, queries := viewtest.Fixture()
	for _, m := range viewtest.Measures(t) {
		e, base := onePartition(t, m, base)
		pre, window := viewtest.MidMerge(base, fresh)
		apply(t, e, pre)
		want := viewtest.History{Ops: append(pre, window...)}.Visible(base)
		ran := false
		restore := core.SetFoldHook(func(s *core.Store) {
			ran = true
			apply(t, e, window)
			v, _ := core.PartitionView(e, 0)
			if len(v.Overlay) != 3 || v.Masked == nil {
				t.Errorf("%s: mid-merge view has %d overlay members, want fresh[2] of the frozen delta and two of the new", m.Name(), len(v.Overlay))
			}
			viewtest.Check(t, m, v, want, queries)
		})
		_, err := e.MergePartition(0)
		restore()
		if err != nil || !ran {
			t.Fatalf("%s: merge err=%v, fold window ran=%v", m.Name(), err, ran)
		}
		v, _ := core.PartitionView(e, 0)
		viewtest.Check(t, m, v, want, queries)
	}
}

// Searching a partition that holds an overlay costs what the overlay
// costs: the view's base is the partition's own backing arrays, and a
// search over it allocates nothing that grows with the base.
func TestViewSearchDoesNotCopyBase(t *testing.T) {
	base, fresh, queries := viewtest.BigFixture()
	e, base := onePartition(t, measure.DTW{}, base)
	apply(t, e, []viewtest.Op{{T: fresh, ID: fresh.ID}, {ID: base[0].ID}})
	v, meta := core.PartitionView(e, 0)
	viewtest.CheckBaseAliased(t, measure.DTW{}, v, base, meta, queries)
}

// The global prune is one bound for every measure: a partition holding an
// answer is never pruned, and neither is a partition pair holding a join
// pair. (Until the engine and the coordinator shared it, the engine summed
// Hausdorff's two endpoint terms and lost answers.)
func TestRelevantPartitionsSound(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(400, 2))
	taus := []float64{0.005, 0.02, 3}
	for _, m := range viewtest.Measures(t) {
		opts := core.DefaultOptions()
		opts.NG, opts.Measure, opts.Cluster = 3, m, cluster.New(cluster.DefaultConfig(2))
		e, err := core.NewEngine(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		parts := e.Partitions()
		for _, tau := range taus {
			for i, a := range parts {
				for j, b := range parts {
					if core.PairRelevant(m, a.MBRf, a.MBRl, b.MBRf, b.MBRl, tau) {
						continue
					}
					for _, x := range a.Trajs {
						for _, y := range b.Trajs {
							if m.Distance(x.Points, y.Points) <= tau {
								t.Fatalf("%s τ=%v: partition pair (%d,%d) pruned, members (%d,%d) are a join pair", m.Name(), tau, i, j, x.ID, y.ID)
							}
						}
					}
				}
			}
		}
		for _, q := range gen.Queries(d, 20, 3) {
			for _, tau := range taus {
				rel := map[int]bool{}
				for _, pid := range core.RelevantPartitionsOf(e, q.Points, tau) {
					rel[pid] = true
				}
				for pid, p := range e.Partitions() {
					if rel[pid] != core.TrajRelevant(m, q.Points, p.MBRf, p.MBRl, tau) {
						t.Fatalf("%s τ=%v: partition %d relevant=%v, its lower bound says otherwise", m.Name(), tau, pid, rel[pid])
					}
					for _, tr := range p.Trajs {
						if !rel[pid] && m.Distance(tr.Points, q.Points) <= tau {
							t.Fatalf("%s τ=%v: partition %d pruned, member %d is an answer", m.Name(), tau, pid, tr.ID)
						}
					}
				}
			}
		}
	}
}
