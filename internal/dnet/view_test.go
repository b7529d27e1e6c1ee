package dnet

import (
	"testing"

	"dita/internal/measure"
	"dita/internal/snap"
	"dita/internal/traj"
	"dita/internal/viewtest"
	"dita/internal/wal"
)

// loadedPartition loads base into a fresh worker through the Load handler —
// a sealed image, so the base the worker holds is decoded: one slab — and
// streams ops into it through the Ingest handler: the worker's own write
// path, minus the sockets.
func loadedPartition(t *testing.T, m measure.Measure, base []*traj.T, ops []viewtest.Op) (*Worker, *workerPartition) {
	t.Helper()
	s := &workerService{w: NewWorker()}
	cfg := testConfig()
	load := sealPartition("view", 0, snap.BuildOptions{Measure: m.Name(), Eps: 0.002, Delta: 5,
		K: cfg.Trie.K, NLAlign: cfg.Trie.NLAlign, NLPivot: cfg.Trie.NLPivot, MinNode: cfg.Trie.MinNode}, base)
	if err := s.Load(load, &LoadReply{}); err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		rec := WireRecord{Seq: uint64(i + 1), Op: wal.OpDelete, ID: op.ID}
		if op.T != nil {
			rec.Op, rec.Points = wal.OpInsert, op.T.Points
		}
		if err := s.Ingest(&IngestArgs{Dataset: "view", Records: []WireRecord{rec}}, &IngestReply{}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := s.partition("view", 0)
	if err != nil {
		t.Fatal(err)
	}
	return s.w, p
}

// TestViewAcrossHosts, worker half (internal/core has the engine's): the
// same histories, the same model, the same checks, before the overlay is
// merged into the decoded base and after.
func TestViewAcrossHosts(t *testing.T) {
	base, fresh, queries := viewtest.Fixture()
	for _, m := range viewtest.Measures(t) {
		for _, h := range viewtest.Histories(base, fresh) {
			t.Run(m.Name()+"/"+h.Name, func(t *testing.T) {
				w, p := loadedPartition(t, m, base, h.Ops)
				viewtest.Check(t, m, p.view(), h.Visible(base), queries)
				w.mergePartition("view", 0, p)
				viewtest.Check(t, m, p.view(), h.Visible(base), queries)
			})
		}
	}
}

// At the parent a Search RPC over a partition holding an overlay copied
// every base pointer and every base meta to append the delta behind them.
func TestViewSearchDoesNotCopyBase(t *testing.T) {
	base, fresh, queries := viewtest.BigFixture()
	_, p := loadedPartition(t, measure.DTW{}, base, []viewtest.Op{{T: fresh, ID: fresh.ID}, {ID: base[0].ID}})
	viewtest.CheckBaseAliased(t, measure.DTW{}, p.view(), p.trajs, p.meta, queries)
}
