package dnet

import (
	"testing"
	"time"

	"dita/internal/core"
	"dita/internal/measure"
	"dita/internal/snap"
	"dita/internal/traj"
	"dita/internal/viewtest"
	"dita/internal/wal"
)

// viewWorker is one worker holding one partition, "view"/0, driven through
// its handlers: the worker's own write path, minus the sockets.
type viewWorker struct {
	s   *workerService
	p   *workerPartition
	seq uint64
}

// loadedPartition loads base into a fresh worker through the Load handler —
// a sealed image, so the base the worker holds is decoded: one slab — and
// streams ops into it through the Ingest handler.
func loadedPartition(t *testing.T, m measure.Measure, base []*traj.T, ops []viewtest.Op) *viewWorker {
	t.Helper()
	s := &workerService{w: NewWorker()}
	cfg := testConfig()
	load := sealPartition("view", 0, snap.BuildOptions{Measure: m.Name(), Eps: 0.002, Delta: 5,
		K: cfg.Trie.K, NLAlign: cfg.Trie.NLAlign, NLPivot: cfg.Trie.NLPivot, MinNode: cfg.Trie.MinNode}, base)
	if err := s.Load(load, &LoadReply{}); err != nil {
		t.Fatal(err)
	}
	p, err := s.partition("view", 0)
	if err != nil {
		t.Fatal(err)
	}
	vw := &viewWorker{s: s, p: p}
	vw.ingest(t, ops)
	return vw
}

// ingest streams ops through the Ingest handler, one record a call.
func (vw *viewWorker) ingest(t *testing.T, ops []viewtest.Op) {
	t.Helper()
	for _, op := range ops {
		vw.seq++
		rec := WireRecord{Seq: vw.seq, Op: wal.OpDelete, ID: op.ID}
		if op.T != nil {
			rec.Op, rec.Points = wal.OpInsert, op.T.Points
		}
		if err := vw.s.Ingest(&IngestArgs{Dataset: "view", Records: []WireRecord{rec}}, &IngestReply{}); err != nil {
			t.Error(err)
		}
	}
}

func (vw *viewWorker) merge() bool { return vw.s.w.mergePartition("view", 0, vw.p) }

// TestViewAcrossHosts, worker half (internal/core has the engine's): the
// same histories, the same model, the same checks, before the overlay is
// merged into the decoded base and after.
func TestViewAcrossHosts(t *testing.T) {
	base, fresh, queries := viewtest.Fixture()
	for _, m := range viewtest.Measures(t) {
		for _, h := range viewtest.Histories(base, fresh) {
			t.Run(m.Name()+"/"+h.Name, func(t *testing.T) {
				vw := loadedPartition(t, m, base, h.Ops)
				viewtest.Check(t, m, vw.p.store.View(), h.Visible(base), queries)
				vw.merge()
				viewtest.Check(t, m, vw.p.store.View(), h.Visible(base), queries)
			})
		}
	}
}

// TestViewMidMerge, worker half: the engine's mid-merge shape
// (viewtest.MidMerge), held open by the one fold hook both hosts share,
// with the window's mutations streamed through the Ingest handler.
func TestViewMidMerge(t *testing.T) {
	base, fresh, queries := viewtest.Fixture()
	for _, m := range viewtest.Measures(t) {
		pre, window := viewtest.MidMerge(base, fresh)
		vw := loadedPartition(t, m, base, pre)
		want := viewtest.History{Ops: append(pre, window...)}.Visible(base)
		ran := false
		restore := core.SetFoldHook(func(s *core.Store) {
			if s != vw.p.store {
				return
			}
			ran = true
			vw.ingest(t, window)
			v := s.View()
			if len(v.Overlay) != 3 || v.Masked == nil {
				t.Errorf("%s: mid-merge view has %d overlay members, want fresh[2] of the frozen delta and two of the new", m.Name(), len(v.Overlay))
			}
			viewtest.Check(t, m, v, want, queries)
		})
		merged := vw.merge()
		restore()
		if !merged || !ran {
			t.Fatalf("%s: merged=%v, fold window ran=%v", m.Name(), merged, ran)
		}
		viewtest.Check(t, m, vw.p.store.View(), want, queries)
	}
}

// At the parent a Search RPC over a partition holding an overlay copied
// every base pointer and every base meta to append the delta behind them.
func TestViewSearchDoesNotCopyBase(t *testing.T) {
	base, fresh, queries := viewtest.BigFixture()
	vw := loadedPartition(t, measure.DTW{}, base, []viewtest.Op{{T: fresh, ID: fresh.ID}, {ID: base[0].ID}})
	v, again := vw.p.store.View(), vw.p.store.View()
	viewtest.CheckBaseAliased(t, measure.DTW{}, v, again.Base, again.BaseMeta, queries)
}

// A merge's trie build runs off every lock: while a fold is parked in its
// build window, a Search RPC on the partition and an Ingest into it both
// return. (Until the worker held a core.Store, its overlay lock was held
// across the whole rebuild and both waited for it.)
func TestSearchDuringParkedFold(t *testing.T) {
	base, fresh, queries := viewtest.Fixture()
	vw := loadedPartition(t, measure.DTW{}, base, viewtest.Upserts(fresh[:3]...))
	parked, release := make(chan struct{}), make(chan struct{})
	restore := core.SetFoldHook(func(s *core.Store) {
		if s == vw.p.store {
			close(parked)
			<-release
		}
	})
	defer restore()
	folded := make(chan bool)
	go func() { folded <- vw.merge() }()
	<-parked
	done := make(chan error, 2)
	go func() {
		done <- vw.s.Search(&SearchArgs{Dataset: "view", Query: queries[0].Points, Tau: 1}, &SearchReply{})
	}()
	go func() {
		vw.seq++
		rec := WireRecord{Seq: vw.seq, Op: wal.OpInsert, ID: fresh[4].ID, Points: fresh[4].Points}
		done <- vw.s.Ingest(&IngestArgs{Dataset: "view", Records: []WireRecord{rec}}, &IngestReply{})
	}()
	for range 2 {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("an RPC waited on the parked fold")
		}
	}
	close(release)
	if !<-folded {
		t.Fatal("the parked fold folded nothing")
	}
}
