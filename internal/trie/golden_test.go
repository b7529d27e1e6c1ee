package trie

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/traj"
)

// goldenWalks is n random-walk members of np(rng) points each.
func goldenWalks(seed int64, n int, np func(*rand.Rand) int) []*traj.T {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*traj.T, n)
	for i := range out {
		pts := make([]geom.Point, np(rng))
		x, y := rng.Float64()*10, rng.Float64()*10
		for j := range pts {
			x += rng.NormFloat64() * 0.05
			y += rng.NormFloat64() * 0.05
			pts[j] = geom.Point{X: x, Y: y}
		}
		out[i] = &traj.T{ID: i, Points: pts}
	}
	return out
}

// walkHash is one FNV-1a hash over 50 seeded queries against tr: the
// recursive descent's (Idx, LB) list and Stats at tau, then the best-first
// traversal's (bucket, key) sequence at tau and at +Inf. It also returns the
// descents' summed Stats.
func walkHash(t *testing.T, tr *Trie, m measure.Measure, tau, jitter float64, seed int64) (uint64, Stats) {
	ctx := context.Background()
	h := fnv.New64a()
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	rng := rand.New(rand.NewSource(seed))
	var agg Stats
	for qi := 0; qi < 50; qi++ {
		src := tr.Trajs[rng.Intn(len(tr.Trajs))].Points
		q := make([]geom.Point, len(src))
		for i, pt := range src {
			q[i] = geom.Point{X: pt.X + rng.NormFloat64()*jitter, Y: pt.Y + rng.NormFloat64()*jitter}
		}
		var st Stats
		cands, err := tr.SearchBoundsContext(ctx, q, m, tau, &st)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cands {
			u64(uint64(c.Idx))
			u64(math.Float64bits(c.LB))
		}
		u64(uint64(st.NodesVisited))
		u64(uint64(st.Pruned))
		u64(uint64(st.Candidates))
		agg.NodesVisited += st.NodesVisited
		agg.Pruned += st.Pruned
		agg.Candidates += st.Candidates
		for _, tau := range []float64{tau, math.Inf(1)} {
			b := tr.BestFirst(ctx, q, m)
			for {
				idxs, key, ok := b.Next(tau)
				if !ok {
					break
				}
				u64(uint64(len(idxs)))
				for _, i := range idxs {
					u64(uint64(i))
				}
				u64(math.Float64bits(key))
			}
		}
	}
	return h.Sum64(), agg
}

// TestGoldenWalk pins "the same tree, the same walk": for three seeded
// partitions × the five measures, walkHash on the built trie and on its
// decoded image. The hashes were taken on the pointer-node trie (commit
// 7eb5df3); a change of layout must not move a candidate, a bound, a counter
// or the order of a bucket.
func TestGoldenWalk(t *testing.T) {
	parts := []struct {
		name  string
		cfg   Config
		trajs []*traj.T
		scale float64 // thresholds are in units of the corpus' step size
		edits float64 // EDR / LCSS threshold: below the number of levels the shape reaches
		want  [5]uint64
	}{
		{"benchmark shape: 1234 members, DefaultConfig", DefaultConfig(), benchTrajs(1234, 42), 0.02, 1,
			[5]uint64{0xa22310412d7baf8f, 0xb3fa3b0d0ab3405, 0x39b7675a05627977, 0x2581ca0841249fd2, 0xb8100814863e9aa5}},
		{"pivot levels", Config{K: 4, NLAlign: 2, NLPivot: 3, MinNode: 4},
			goldenWalks(29, 2000, func(rng *rand.Rand) int { return 8 + rng.Intn(25) }), 1, 3,
			[5]uint64{0xf3ff7bfc5514abe9, 0xf85bb6126fa0bf78, 0xdcb6c626f07d0786, 0x558a8fa38134f741, 0x9eb3338d04208064}},
		{"exhausted buckets", Config{K: 5, NLAlign: 3, NLPivot: 2, MinNode: 2},
			goldenWalks(31, 2000, func(rng *rand.Rand) int { return 1 + rng.Intn(8) }), 1, 3,
			[5]uint64{0x68b0b96d69b70de5, 0x1691f1500b565b31, 0x56ffd54e9b772ef0, 0xd567ddaf9b40d4e3, 0x17d2b1b99de10dc6}},
	}
	for _, p := range parts {
		built := Build(p.trajs, p.cfg)
		dec, err := DecodeBinary(built.AppendBinary(nil), p.trajs)
		if err != nil {
			t.Fatal(err)
		}
		measures := []struct {
			m   measure.Measure
			tau float64
		}{
			{measure.DTW{}, 0.5 * p.scale},
			{measure.Frechet{}, 0.2 * p.scale},
			{measure.EDR{Eps: 0.1 * p.scale}, p.edits},
			{measure.LCSS{Eps: 0.1 * p.scale, Delta: 2}, p.edits},
			{measure.ERP{}, 2 * p.scale},
		}
		for mi, mt := range measures {
			for _, tr := range []*Trie{built, dec} {
				got, agg := walkHash(t, tr, mt.m, mt.tau, 0.01*p.scale, int64(mi)+100)
				if agg.Pruned == 0 || agg.Candidates == 0 || agg.Candidates >= 50*len(p.trajs) {
					t.Errorf("%s / %s: 50 queries pruned %d subtrees and kept %d candidates — the hash pins nothing",
						p.name, mt.m.Name(), agg.Pruned, agg.Candidates)
				}
				if got != p.want[mi] {
					t.Errorf("%s / %s: walk hash %#x, pinned %#x (visited %d, pruned %d, candidates %d)",
						p.name, mt.m.Name(), got, p.want[mi], agg.NodesVisited, agg.Pruned, agg.Candidates)
				}
			}
		}
	}
}
