package trie

import (
	"bytes"
	"context"
	"math"
	"testing"

	"dita/internal/geom"
	"dita/internal/traj"
)

// FuzzEnvelopeBound checks the envelope bound against the kernels it guards,
// for every registered measure: the bound of every internal node is at most
// Distance — in floating point, not up to rounding — to every member below
// it, a yielded key exceeds a member's Distance only where it is the
// descent's own path bound (which sums its levels first, last, pivots — not
// in the DP's order — and so can sit an ulp above a tight Distance; ROADMAP
// item 1), and a measure that may leave a point unmatched (ERP, EDR, LCSS)
// gets no envelope bound at all: its keys are the path bounds. Coordinates
// are small multiples of 0.1, so inputs are full of exact duplicates,
// stationary stretches and ties whose sums round.
func FuzzEnvelopeBound(f *testing.F) {
	f.Add([]byte{3, 4, 1, 1, 2, 2, 3, 3, 10, 10, 11, 10, 12, 11, 13, 11, 250, 250, 251, 250, 252, 251, 253, 251})
	f.Add([]byte{1, 2, 7, 7, 7, 7, 7, 7, 9, 9, 9, 9, 9, 9, 9, 9}) // stationary query and members
	f.Add([]byte{5, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100})
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		qn, tn := 1+int(data[0])%6, traj.MinLen+int(data[1])%6
		var pts []geom.Point
		for i := 2; i+1 < len(data) && len(pts) < qn+64*tn; i += 2 {
			pts = append(pts, geom.Point{X: float64(int8(data[i])) * 0.1, Y: float64(int8(data[i+1])) * 0.1})
		}
		if len(pts) < qn+tn {
			return
		}
		q, rest := pts[:qn], pts[qn:]
		var world []*traj.T
		for ; len(rest) >= tn; rest = rest[tn:] {
			world = append(world, &traj.T{ID: len(world), Points: rest[:tn]})
		}
		tr := Build(world, Config{K: int(data[0]) % 4, NLAlign: 2 + int(data[1])%3, NLPivot: 2, MinNode: 1 + int(data[0])%3})
		for _, m := range registryMeasures(t) {
			b := tr.BestFirst(ctx, q, m)
			if unmatched := !m.SupportsCoverageFilter(); b.env == unmatched {
				t.Fatalf("%s: envelope bound enabled = %v", m.Name(), b.env)
			}
			dist := make([]float64, len(world))
			for i, c := range world {
				dist[i] = m.Distance(c.Points, q)
			}
			if b.env {
				var walk func(n *ptrNode)
				walk = func(n *ptrNode) {
					if n.isLeaf() {
						return
					}
					lb := b.envBound(n.env, math.Inf(1))
					for _, i := range collectLeafIdx(n) {
						if lb > dist[i] {
							t.Fatalf("%s: envelope bound %g of a level-%d node above Distance %g to member %d",
								m.Name(), lb, n.level, dist[i], i)
						}
					}
					for _, c := range n.children {
						walk(c)
					}
				}
				walk(tr.tree())
			}
			want, err := tr.SearchBoundsContext(ctx, q, m, math.Inf(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			path := make([]float64, len(world))
			for _, c := range want {
				path[c.Idx] = c.LB
			}
			got, ok := drain(b, func(int) float64 { return math.Inf(1) })
			if !ok || len(got) != len(world) {
				t.Fatalf("%s: drained %d of %d members (in order: %v)", m.Name(), len(got), len(world), ok)
			}
			seen := make([]bool, len(world))
			for _, c := range got {
				if seen[c.Idx] {
					t.Fatalf("%s: member %d yielded twice", m.Name(), c.Idx)
				}
				seen[c.Idx] = true
				if c.LB != path[c.Idx] && (!b.env || c.LB > dist[c.Idx] || c.LB < path[c.Idx]) {
					t.Fatalf("%s: member %d yielded at %g: path bound %g, Distance %g, envelope %v",
						m.Name(), c.Idx, c.LB, path[c.Idx], dist[c.Idx], b.env)
				}
			}
		}
	})
}

// FuzzDecodeBinary drives DecodeBinary with arbitrary bytes over a fixed
// trajectory slice: it never panics, and what it accepts is the canonical
// encoding of a trie whose leaves address that slice — the decoder is strict,
// so accepted input re-encodes to itself. The corpus starts from the current
// layout, from format 1's (indexing points between the count and the root),
// from cuts and extensions of both, and from one-child chains at and beyond
// the depth a trie with K = 2 can have.
func FuzzDecodeBinary(f *testing.F) {
	trajs := serialTrajs(25, 9)
	f.Add(chainEncoding(2, len(trajs), 4, iota32(len(trajs))))
	f.Add(chainEncoding(2, len(trajs), 64, iota32(len(trajs))))
	built, ip := eagerBuild(trajs, Config{K: 2, NLAlign: 3, NLPivot: 2, MinNode: 4})
	for _, enc := range [][]byte{built.AppendBinary(nil), appendBinaryFormat1(built, ip)} {
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(enc[:len(enc)-1])
		f.Add(append(append([]byte(nil), enc...), 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeBinary(data, trajs)
		if err != nil {
			if tr != nil {
				t.Fatal("DecodeBinary returned both a trie and an error")
			}
			return
		}
		for _, i := range tr.LeafIndexes() {
			if i < 0 || i >= len(trajs) {
				t.Fatalf("accepted a leaf index %d over %d trajectories", i, len(trajs))
			}
		}
		if !bytes.Equal(tr.AppendBinary(nil), data) {
			t.Fatal("accepted input is not the canonical encoding of what it decoded to")
		}
	})
}
