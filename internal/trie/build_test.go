package trie

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"dita/internal/geom"
	"dita/internal/pivot"
	"dita/internal/str"
	"dita/internal/traj"
)

// eagerBuild is Build as it was written while the trie still stored every
// member's indexing points: pivot.IndexingPoints for all of them up front,
// every level — the two align levels included — keyed from that table. Kept
// as the reference TestBuildMatchesEagerReference compares against. It
// returns the table too, which format 1 serialized.
func eagerBuild(trajs []*traj.T, cfg Config) (*Trie, [][]geom.Point) {
	cfg = cfg.sanitized()
	ip := make([][]geom.Point, len(trajs))
	for i, tr := range trajs {
		ip[i] = pivot.IndexingPoints(tr.Points, cfg.K, cfg.Strategy)
	}
	var build func(idxs []int, level int) *ptrNode
	build = func(idxs []int, level int) *ptrNode {
		n := &ptrNode{level: level - 1, mbr: geom.EmptyMBR()}
		if len(idxs) == 0 {
			n.leafIdx = []int{}
			return n
		}
		if level >= cfg.K+2 || len(idxs) <= cfg.MinNode {
			n.leafIdx = idxs
			return n
		}
		var exhausted, alive []int
		for _, i := range idxs {
			if level >= len(ip[i]) {
				exhausted = append(exhausted, i)
			} else {
				alive = append(alive, i)
			}
		}
		fanout := cfg.NLPivot
		if level < 2 {
			fanout = cfg.NLAlign
		}
		if len(exhausted) > 0 {
			n.children = append(n.children, &ptrNode{level: level - 1, mbr: geom.EmptyMBR(), leafIdx: exhausted})
		}
		if len(alive) > 0 {
			keys := make([]geom.Point, len(alive))
			for j, i := range alive {
				keys[j] = ip[i][level]
			}
			for _, tile := range str.Tile(keys, fanout) {
				group := make([]int, len(tile))
				m := geom.EmptyMBR()
				for j, k := range tile {
					group[j] = alive[k]
					m = m.Extend(keys[k])
				}
				child := build(group, level+1)
				child.level = level
				child.mbr = m
				n.children = append(n.children, child)
			}
		}
		return n
	}
	all := make([]int, len(trajs))
	for i := range all {
		all[i] = i
	}
	return fromTree(cfg, trajs, build(all, 0)), ip
}

// shape reports a trie's deepest node level and whether any exhausted bucket
// (a leaf with no level point) formed.
func shape(n *ptrNode) (maxLevel int, exhausted bool) {
	maxLevel = n.level
	exhausted = n.level >= 0 && n.isLeaf() && n.mbr.IsEmpty()
	for _, c := range n.children {
		l, e := shape(c)
		if l > maxLevel {
			maxLevel = l
		}
		exhausted = exhausted || e
	}
	return maxLevel, exhausted
}

// TestBuildMatchesEagerReference: selecting pivots only for the groups that
// reach a pivot level builds the tree that selecting them for everyone built —
// same levels, MBRs, children, leaf indexes, byte for byte — at shapes that do
// reach pivot levels, for every strategy.
func TestBuildMatchesEagerReference(t *testing.T) {
	walk := func(rng *rand.Rand, id, n int) *traj.T {
		pts := make([]geom.Point, n)
		x, y := rng.Float64()*10, rng.Float64()*10
		for j := range pts {
			x += rng.NormFloat64() * 0.05
			y += rng.NormFloat64() * 0.05
			pts[j] = geom.Point{X: x, Y: y}
		}
		return &traj.T{ID: id, Points: pts}
	}
	cases := []struct {
		name          string
		cfg           Config
		n             int
		gen           func(rng *rand.Rand, id int) *traj.T
		wantExhausted bool
	}{
		{"default config over 30k members", DefaultConfig(), 30000,
			func(rng *rand.Rand, id int) *traj.T { return walk(rng, id, 8+rng.Intn(25)) }, false},
		{"narrow align levels over 2k", Config{K: 4, NLAlign: 2, NLPivot: 3, MinNode: 4}, 2000,
			func(rng *rand.Rand, id int) *traj.T { return walk(rng, id, 8+rng.Intn(25)) }, false},
		{"align fan-out 4 over 2k", Config{K: 3, NLAlign: 4, NLPivot: 2, MinNode: 2}, 2000,
			func(rng *rand.Rand, id int) *traj.T { return walk(rng, id, 8+rng.Intn(25)) }, false},
		{"members shorter than K+2", Config{K: 5, NLAlign: 3, NLPivot: 2, MinNode: 2}, 2000,
			func(rng *rand.Rand, id int) *traj.T { return walk(rng, id, 1+rng.Intn(8)) }, true},
		{"duplicates and stationary members", Config{K: 4, NLAlign: 3, NLPivot: 3, MinNode: 3}, 2000,
			func(rng *rand.Rand, id int) *traj.T {
				// Five distinct geometries, one of them standing still: whole
				// groups tie on every level point.
				g := rand.New(rand.NewSource(int64(rng.Intn(5))))
				if g.Intn(5) == 0 {
					return &traj.T{ID: id, Points: make([]geom.Point, 9)}
				}
				return walk(g, id, 9)
			}, false},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(29))
		trajs := make([]*traj.T, tc.n)
		for i := range trajs {
			trajs[i] = tc.gen(rng, i)
		}
		for _, s := range []pivot.Strategy{pivot.Neighbor, pivot.Inflection, pivot.FirstLast} {
			cfg := tc.cfg
			cfg.Strategy = s
			got := Build(trajs, cfg)
			want, _ := eagerBuild(trajs, cfg)
			if lvl, ex := shape(want.tree()); lvl < 2 || ex != tc.wantExhausted {
				t.Fatalf("%s / %v: reference reaches level %d, exhausted bucket %v — the case does not test a pivot level",
					tc.name, s, lvl, ex)
			}
			if got.NodeCount() != want.NodeCount() || !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
				t.Fatalf("%s / %v: Build's tree (%d nodes) differs from the eager reference's (%d nodes)",
					tc.name, s, got.NodeCount(), want.NodeCount())
			}
		}
	}
}

// appendBinaryFormat1 is AppendBinary as snapshot format 1 had it: the
// per-trajectory indexing points sit between the trajectory count and the
// root marker.
func appendBinaryFormat1(t *Trie, ip [][]geom.Point) []byte {
	enc := t.AppendBinary(nil)
	const head = 6 * 4 // config ×5, trajectory count
	out := append([]byte(nil), enc[:head]...)
	for _, pts := range ip {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(pts)))
		for _, p := range pts {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.X))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.Y))
		}
	}
	return append(out, enc[head:]...)
}

// TestDecodeRefusesFormat1Layout: there is one trie layout. The old one — and
// every truncation of it, and either layout with bytes after it — is an
// error, never a panic and never a trie.
func TestDecodeRefusesFormat1Layout(t *testing.T) {
	trajs := serialTrajs(40, 17)
	cfg := Config{K: 3, NLAlign: 3, NLPivot: 2, MinNode: 2}
	built, ip := eagerBuild(trajs, cfg)
	old := appendBinaryFormat1(built, ip)
	for n := 0; n <= len(old); n++ {
		if dec, err := DecodeBinary(old[:n], trajs); err == nil || dec != nil {
			t.Fatalf("format-1 layout cut to %d/%d bytes: trie %v, err %v", n, len(old), dec != nil, err)
		}
	}
	for _, enc := range [][]byte{old, built.AppendBinary(nil)} {
		for _, tail := range [][]byte{{0}, {1}, enc} {
			if dec, err := DecodeBinary(append(append([]byte(nil), enc...), tail...), trajs); err == nil || dec != nil {
				t.Fatalf("%d bytes + %d trailing: trie %v, err %v", len(enc), len(tail), dec != nil, err)
			}
		}
	}
}
