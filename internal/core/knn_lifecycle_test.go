package core

import (
	"fmt"
	"testing"

	"dita/internal/gen"
	"dita/internal/measure"
	"dita/internal/snap"
	"dita/internal/traj"
)

// TestKNNEnvelopeLifecycle runs kNN — member queries and outliers, several
// k including k >= visible — against brute force, bit for bit, in every
// state a partition's index can be in: freshly built, decoded from a
// snapshot (envelopes are not serialized), under an unmerged overlay with
// tombstones and upserts, inside a merge's frozen-delta window, merged,
// split and folded together — for every registered measure.
func TestKNNEnvelopeLifecycle(t *testing.T) {
	for mi, name := range []string{"DTW", "FRECHET", "EDR", "LCSS", "ERP", "HAUSDORFF"} {
		m, err := measure.ByName(name, 0.002, 5)
		if err != nil {
			t.Fatal(err)
		}
		seed := int64(500 + 10*mi)
		t.Run(name, func(t *testing.T) {
			d := smallDataset(240, seed)
			opts := smallOpts(2)
			opts.Measure = m
			e, err := NewEngine(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := map[int]*traj.T{}
			for _, tr := range d.Trajs {
				want[tr.ID] = tr
			}
			queries := append(gen.Queries(d, 3, seed+1), gen.OutlierQueries(d, seed+2)...)
			check := func(e *Engine, label string) {
				t.Helper()
				vis := visibleDataset(want).Trajs
				for qi, q := range queries {
					for _, k := range []int{1, 7, len(vis) + 3} {
						checkKNN(t, fmt.Sprintf("%s: query %d", label, qi), e.SearchKNN(q, k), vis, m, q, k)
					}
				}
			}
			check(e, "built")

			var snaps []*snap.Snapshot
			for _, p := range e.Partitions() {
				s, err := snap.Decode(snap.Encode(e.ExportSnapshot("trips", p)))
				if err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, s)
			}
			cold, err := NewEngineFromSnapshots(snaps, smallOpts(2))
			if err != nil {
				t.Fatal(err)
			}
			check(cold, "cold start")

			// The rest runs on the cold-started engine: decoded tries under
			// an overlay, then rebuilt ones.
			e = cold
			if _, err := e.EnableIngest(IngestConfig{}); err != nil {
				t.Fatal(err)
			}
			pool := mutPool(60, seed+3)
			for i, q := range gen.OutlierQueries(d, seed+4) {
				// Members out where the outlier queries are, so the far
				// queries have near neighbours in an overlay too.
				pool[i] = &traj.T{ID: pool[i].ID, Points: q.Points}
			}
			insert := func(tr *traj.T) {
				t.Helper()
				if err := e.Insert(tr); err != nil {
					t.Fatal(err)
				}
				want[tr.ID] = tr
			}
			for _, tr := range pool[:30] {
				insert(tr)
			}
			insert(&traj.T{ID: d.Trajs[5].ID, Points: pool[40].Points}) // upsert over a base member
			for _, id := range []int{d.Trajs[9].ID, pool[3].ID} {
				if ok, err := e.Delete(id); err != nil || !ok {
					t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
				}
				delete(want, id)
			}
			check(e, "unmerged overlay")

			pid := e.lay.loc[pool[0].ID]
			hookRan := false
			restore := SetFoldHook(func(s *Store) {
				if s != e.parts[pid].Store || s.frozen == nil {
					return
				}
				hookRan = true
				insert(pool[31]) // a fresh delta beside the frozen one
				check(e, "frozen delta")
			})
			did, err := e.MergePartition(pid)
			restore()
			if err != nil || !did || !hookRan {
				t.Fatalf("MergePartition: did=%v hookRan=%v err=%v", did, hookRan, err)
			}
			check(e, "after MergePartition")

			if _, err := e.SplitPartition(hottestLive(e).ID, 3); err != nil {
				t.Fatal(err)
			}
			check(e, "after SplitPartition")
			if _, err := e.MergePartitions(coldestLive(e, 2)); err != nil {
				t.Fatal(err)
			}
			check(e, "after MergePartitions")
		})
	}
}
