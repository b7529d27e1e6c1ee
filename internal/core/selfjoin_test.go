package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dita/internal/gen"
	"dita/internal/measure"
	"dita/internal/oracle"
	"dita/internal/traj"
	"dita/internal/wal"
)

// sixMeasures is every registered measure, with edit tolerances at the
// BeijingLike coordinate scale.
func sixMeasures() []measure.Measure {
	return []measure.Measure{
		measure.DTW{}, measure.Frechet{}, measure.EDR{Eps: 0.002},
		measure.LCSS{Eps: 0.002, Delta: 5}, measure.ERP{}, measure.Hausdorff{},
	}
}

// joinTauFor is a threshold at which a small BeijingLike self-join has
// matches beyond each member with itself.
func joinTauFor(m measure.Measure) float64 {
	switch {
	case m.Accumulation() == measure.AccumEdit:
		return 6
	case m.Accumulation() == measure.AccumMax:
		return 0.01
	default:
		return 0.05
	}
}

// checkMirrored holds a partial self-join answer to full, the complete one:
// the contractual (T.ID, Q.ID) order with no pair twice, every pair in full
// with its bits, and beside its mirror.
func checkMirrored(t *testing.T, got, full []Pair, label string) {
	t.Helper()
	at := make(map[[2]int]uint64, len(full))
	for _, p := range full {
		at[[2]int{p.T.ID, p.Q.ID}] = math.Float64bits(p.Distance)
	}
	kept := make(map[[2]int]bool, len(got))
	for i, p := range got {
		if i > 0 {
			prev := got[i-1]
			if prev.T.ID > p.T.ID || (prev.T.ID == p.T.ID && prev.Q.ID >= p.Q.ID) {
				t.Fatalf("%s: pair %d (%d,%d) does not follow (%d,%d)", label, i, p.T.ID, p.Q.ID, prev.T.ID, prev.Q.ID)
			}
		}
		if b, ok := at[[2]int{p.T.ID, p.Q.ID}]; !ok || b != math.Float64bits(p.Distance) {
			t.Fatalf("%s: pair (%d,%d) at %v is not in the full answer with those bits", label, p.T.ID, p.Q.ID, p.Distance)
		}
		kept[[2]int{p.T.ID, p.Q.ID}] = true
	}
	for k := range kept {
		if !kept[[2]int{k[1], k[0]}] {
			t.Fatalf("%s: (%d,%d) kept without its mirror", label, k[0], k[1])
		}
	}
}

// samePairs fails unless two join answers are equal pair for pair: ids in
// the same order, distances bit for bit.
func samePairs(t *testing.T, got, want []Pair, label string) {
	t.Helper()
	checkJoin(t, got, pairsOf(want), label)
}

// A self-join is brute force pair for pair, and the join of the engine with
// a second engine over the same visible members — the two-sided plan — for
// every measure, on a static engine, under an unmerged overlay with
// tombstones and upserts, and after the merge.
func TestSelfJoinAllMeasures(t *testing.T) {
	for mi, m := range sixMeasures() {
		t.Run(m.Name(), func(t *testing.T) {
			seed := int64(700 + 10*mi)
			d := smallDataset(160, seed)
			opts := smallOpts(3)
			opts.Measure = m
			tau := joinTauFor(m)
			e, err := NewEngine(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := map[int]*traj.T{}
			for _, tr := range d.Trajs {
				want[tr.ID] = tr
			}
			check := func(label string) {
				t.Helper()
				vis := visibleDataset(want)
				var js JoinStats
				pairs := e.Join(e, tau, DefaultJoinOptions(), &js)
				checkJoin(t, pairs, oracle.SelfJoin(vis.Trajs, m, tau), label)
				// Each orientation measured on its own: the mirrored bits are
				// Distance's in that orientation too.
				checkJoin(t, pairs, oracle.Join(vis.Trajs, vis.Trajs, m, tau), label+": two-sided")
				if len(pairs) <= vis.Len() {
					t.Fatalf("%s: %d pairs over %d members: nothing but self pairs to mirror", label, len(pairs), vis.Len())
				}
				if !js.Funnel.Monotone() {
					t.Errorf("%s: funnel not monotone: %+v", label, js.Funnel)
				}
				// Unordered work: every member with itself, every other
				// match once for its two pairs.
				if got := 2*js.Funnel.Matched - int64(vis.Len()); got != int64(len(pairs)) || js.Results != len(pairs) {
					t.Errorf("%s: matched %d over %d members accounts for %d pairs, join returned %d (Results %d)",
						label, js.Funnel.Matched, vis.Len(), got, len(pairs), js.Results)
				}
				clone, err := NewEngine(vis, opts)
				if err != nil {
					t.Fatal(err)
				}
				samePairs(t, pairs, e.Join(clone, tau, DefaultJoinOptions(), nil), label+": e.Join(e) vs e.Join(clone)")
				samePairs(t, pairs, clone.Join(e, tau, DefaultJoinOptions(), nil), label+": e.Join(e) vs clone.Join(e)")
			}
			check("static")

			if _, err := e.EnableIngest(IngestConfig{}); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed + 1))
			for i, tr := range mutPool(50, seed+2) {
				if i%3 == 0 { // an upsert: an existing id moves to a new route
					tr.ID = d.Trajs[rng.Intn(d.Len())].ID
				}
				if err := e.Insert(tr); err != nil {
					t.Fatal(err)
				}
				want[tr.ID] = tr
			}
			for i := 0; i < 25; i++ {
				id := d.Trajs[rng.Intn(d.Len())].ID
				if _, err := e.Delete(id); err != nil {
					t.Fatal(err)
				}
				delete(want, id)
			}
			check("overlay")
			if err := e.MergeAll(); err != nil {
				t.Fatal(err)
			}
			check("merged")
		})
	}
}

// The canonical order of a diagonal edge is the slot in the partition's
// view, not the id: members that share an id — NewEngine does not reject
// them — are still paired with each other, in both orientations, whether
// they share a partition or not.
func TestSelfJoinDuplicateIDs(t *testing.T) {
	d := smallDataset(90, 41)
	twin := func(i int) *traj.T {
		c := d.Trajs[i].Clone()
		c.Points[0].X += 1e-5
		return c
	}
	// Two copies of member 5 (one right beside it, so STR keeps them in one
	// partition) and one of member 40, all under the originals' ids.
	trajs := append([]*traj.T{}, d.Trajs...)
	trajs = append(trajs, twin(5), twin(5), twin(40))
	dup := traj.NewDataset("dup", trajs)
	for _, ng := range []int{1, 3} {
		opts := smallOpts(2)
		opts.NG = ng
		e, err := NewEngine(dup, opts)
		if err != nil {
			t.Fatal(err)
		}
		clone, err := NewEngine(dup, opts)
		if err != nil {
			t.Fatal(err)
		}
		const tau = 0.02
		// Pairs under one (T.ID, Q.ID) may come in either order; the
		// oracle's is by distance.
		got := oracle.SortPairs(pairsOf(e.Join(e, tau, DefaultJoinOptions(), nil)))
		if err := oracle.DiffJoin(got, oracle.SelfJoin(dup.Trajs, e.Measure(), tau)); err != nil {
			t.Fatalf("NG=%d: self-join: %v", ng, err)
		}
		two := oracle.SortPairs(pairsOf(e.Join(clone, tau, DefaultJoinOptions(), nil)))
		if err := oracle.DiffJoin(two, oracle.Join(dup.Trajs, dup.Trajs, e.Measure(), tau)); err != nil {
			t.Fatalf("NG=%d: two-engine join: %v", ng, err)
		}
		n := map[[2]int]int{}
		for _, p := range got {
			n[[2]int{p.T, p.Q}]++
		}
		id5, id40 := d.Trajs[5].ID, d.Trajs[40].ID
		if n[[2]int{id5, id5}] != 9 || n[[2]int{id40, id40}] != 4 {
			t.Errorf("NG=%d: %d pairs among the three members with id %d (want 9), %d among the two with id %d (want 4)",
				ng, n[[2]int{id5, id5}], id5, n[[2]int{id40, id40}], id40)
		}
	}
}

// An edge of a self-join that is lost takes pairs from both its partitions:
// the report names both, and what survives is still closed under mirroring.
func TestSelfJoinPartialNamesBothPartitions(t *testing.T) {
	d := smallDataset(200, 43)
	e, err := NewEngine(d, smallOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	const tau = 0.05
	full := e.Join(e, tau, DefaultJoinOptions(), nil)
	checkJoin(t, full, oracle.SelfJoin(d.Trajs, e.Measure(), tau), "full")
	// Poison one partition: every edge verifying against its members panics.
	victim := e.parts[len(e.parts)/2]
	defer poisonPartition(e, victim.ID)()
	pairs, rep, err := e.JoinPartialContext(context.Background(), e, tau, DefaultJoinOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial() || len(pairs) >= len(full) {
		t.Fatalf("poisoned partition %d: partial=%v, %d of %d pairs", victim.ID, rep.Partial(), len(pairs), len(full))
	}
	named := map[int]bool{}
	for _, s := range rep.Skipped {
		named[s.Partition] = true
	}
	if !named[victim.ID] {
		t.Errorf("report %v does not name the poisoned partition %d", rep.Skipped, victim.ID)
	}
	// Every pair with a member of a named partition on either side is
	// missing or kept as a whole: no (a,b) without (b,a).
	checkMirrored(t, pairs, full, "partial")
	home := map[int]int{}
	for _, p := range e.parts {
		for _, tr := range p.Trajs {
			home[tr.ID] = p.ID
		}
	}
	kept := map[[2]int]bool{}
	for _, p := range pairs {
		kept[[2]int{p.T.ID, p.Q.ID}] = true
	}
	for _, p := range full {
		if !kept[[2]int{p.T.ID, p.Q.ID}] && !(named[home[p.T.ID]] && named[home[p.Q.ID]]) {
			t.Fatalf("pair (%d,%d) of partitions (%d,%d) is missing, but the report names only %v",
				p.T.ID, p.Q.ID, home[p.T.ID], home[p.Q.ID], rep.Skipped)
		}
	}
}

// estimateDirection costs a partition by what a query sees of it: members
// that live only in the overlay count, tombstoned base members do not, and
// an empty base is not a division by zero.
func TestEstimateDirectionSeesOverlay(t *testing.T) {
	d := smallDataset(120, 47)
	opts := smallOpts(2)
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnableIngest(IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	p := e.parts[0]
	members := append([]*traj.T{}, p.Trajs...)
	estimate := func() (trans, comp float64) {
		v := side{e.parts[0].View(), e.parts[0], e.lay.bounds[0]}
		return estimateDirection(e.opts.Measure, v, v, 0.05, 1, rand.New(rand.NewSource(1)))
	}
	baseTrans, baseComp := estimate()
	if baseTrans <= 0 || baseComp <= 0 {
		t.Fatalf("static partition estimated at trans=%v comp=%v", baseTrans, baseComp)
	}
	for _, tr := range members {
		if _, err := e.Delete(tr.ID); err != nil {
			t.Fatal(err)
		}
	}
	if trans, comp := estimate(); trans != 0 || comp != 0 {
		t.Errorf("fully tombstoned partition estimated at trans=%v comp=%v, want 0", trans, comp)
	}
	if _, err := e.MergePartition(0); err != nil {
		t.Fatal(err)
	}
	if trans, comp := estimate(); trans != 0 || comp != 0 {
		t.Errorf("empty partition estimated at trans=%v comp=%v, want 0", trans, comp)
	}
	// The same members again, now in the overlay of an empty base.
	for _, tr := range members {
		r := wal.Record{Seq: e.parts[0].LastSeq() + 1, Op: wal.OpInsert, ID: tr.ID, Points: tr.Points}
		if _, err := e.parts[0].Apply(MergePolicy{}, []wal.Record{r}, nil); err != nil {
			t.Fatal(err)
		}
	}
	e.lay.SetBounds(0, members)
	trans, comp := estimate()
	if math.IsNaN(trans) || math.IsNaN(comp) || trans != baseTrans || comp < baseComp {
		t.Errorf("overlay-only partition estimated at trans=%v comp=%v; as a base it was trans=%v comp=%v",
			trans, comp, baseTrans, baseComp)
	}
}

// SortByIDPair is sort.Slice's order on (t, q), negative and wide ids
// included, and leaves equal keys in their input order.
func TestSortByIDPair(t *testing.T) {
	type rec struct{ t, q, seq int }
	rng := rand.New(rand.NewSource(59))
	for _, span := range []int{1, 3, 300, 1 << 20, math.MaxInt} {
		for _, n := range []int{0, 1, 2, 17, 5000} {
			in := make([]rec, n)
			for i := range in {
				in[i] = rec{rng.Intn(span) - span/2, rng.Intn(span) - span/2, i}
				if span == math.MaxInt && i%2 == 0 {
					in[i].t = -in[i].t
				}
			}
			want := append([]rec{}, in...)
			sort.SliceStable(want, func(a, b int) bool {
				if want[a].t != want[b].t {
					return want[a].t < want[b].t
				}
				return want[a].q < want[b].q
			})
			got := SortByIDPair(in, func(r *rec) (int, int) { return r.t, r.q })
			if len(got) != len(want) {
				t.Fatalf("span %d n %d: %d records out", span, n, len(got))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("span %d n %d: record %d = %+v, want %+v", span, n, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkSelfJoin's corpus at a size a test can afford: the symmetric
// plan roughly halves the verified pairs of the two-sided one.
func TestSelfJoinHalvesVerification(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(1500, 1))
	opts := DefaultOptions()
	opts.NG = 4
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	var self, two JoinStats
	a := e.Join(e, 0.003, DefaultJoinOptions(), &self)
	b := e.Join(clone, 0.003, DefaultJoinOptions(), &two)
	samePairs(t, a, b, "self vs two engines")
	// Not exactly half: every member is verified against itself once in
	// both plans, and the trie may pass (a,b) where it prunes (b,a).
	if self.Edges >= two.Edges || 10*self.Funnel.Verified > 6*two.Funnel.Verified {
		t.Errorf("self-join: %d edges, %d verified; two-sided: %d edges, %d verified",
			self.Edges, self.Funnel.Verified, two.Edges, two.Funnel.Verified)
	}
}
