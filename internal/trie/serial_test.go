package trie

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/traj"
)

func serialTrajs(n int, seed int64) []*traj.T {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*traj.T, n)
	for i := range out {
		np := 2 + rng.Intn(15)
		pts := make([]geom.Point, np)
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

// wantEncoding pins an encoding. The pinned bytes are the ones snapshot
// format 1 produced with its per-trajectory indexing-point block cut out
// (checked against that commit when the block was dropped): header and node
// section have not changed since before envelopes existed — those are derived
// state, recomputed from Trajs on decode, and must never reach AppendBinary.
func wantEncoding(t *testing.T, enc []byte, size int, sum string) {
	t.Helper()
	if got := sha256.Sum256(enc); len(enc) != size || hex.EncodeToString(got[:]) != sum {
		t.Fatalf("encoding changed: %d bytes sha256 %x, want %d bytes %s", len(enc), got, size, sum)
	}
}

func TestSerialRoundTrip(t *testing.T) {
	trajs := serialTrajs(120, 42)
	built := Build(trajs, Config{K: 3, NLAlign: 4, NLPivot: 3, MinNode: 4})
	enc := built.AppendBinary(nil)
	wantEncoding(t, enc, 4236, "d179013eb13ed801fb3d7a5d4c39e90c12419c66749a5da15aaf2e7f4a686bfd")

	dec, err := DecodeBinary(enc, trajs)
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	// Canonical encoding: the decoded trie re-encodes bit-exactly.
	if !bytes.Equal(dec.AppendBinary(nil), enc) {
		t.Fatal("decoded trie does not re-encode to the same bytes")
	}
	if dec.NodeCount() != built.NodeCount() {
		t.Fatalf("node count: decoded %d, built %d", dec.NodeCount(), built.NodeCount())
	}
	if dec.cfg != built.cfg {
		t.Fatalf("config: decoded %+v, built %+v", dec.cfg, built.cfg)
	}

	// The decoded trie must answer queries identically to the built one.
	m := measure.DTW{}
	for qi := 0; qi < 10; qi++ {
		q := trajs[qi*7%len(trajs)].Points
		for _, tau := range []float64{0.01, 0.1, 1.0} {
			want := built.Search(q, m, tau, nil)
			got := dec.Search(q, m, tau, nil)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("query %d tau %g: built %v, decoded %v", qi, tau, want, got)
			}
		}
	}
}

func TestSerialDeterministic(t *testing.T) {
	trajs := serialTrajs(60, 7)
	a := Build(trajs, Config{K: 2, NLAlign: 3, NLPivot: 2, MinNode: 8}).AppendBinary(nil)
	b := Build(trajs, Config{K: 2, NLAlign: 3, NLPivot: 2, MinNode: 8}).AppendBinary(nil)
	if !bytes.Equal(a, b) {
		t.Fatal("two builds over identical input encode differently")
	}
	wantEncoding(t, a, 1126, "0ee3349c3fa024b2f0d8ff87e6cb754621c86847af322b50139bcf16416b279b")
}

// checkEnvelopes walks a trie: every internal node carries the MBR of every
// point of every member below it — exactly, not merely a cover —, no leaf
// carries one, and it returns the subtree's envelope.
func checkEnvelopes(t *testing.T, tr *Trie, n *ptrNode) geom.MBR {
	t.Helper()
	env := geom.EmptyMBR()
	for _, i := range n.leafIdx {
		env = env.Union(tr.Trajs[i].MBR())
	}
	for _, c := range n.children {
		env = env.Union(checkEnvelopes(t, tr, c))
	}
	switch {
	case n.isLeaf() && n.env != nil:
		t.Fatalf("leaf at level %d carries an envelope", n.level)
	case !n.isLeaf() && n.env == nil:
		t.Fatalf("internal node at level %d has no envelope", n.level)
	case !n.isLeaf() && *n.env != env:
		t.Fatalf("internal node at level %d: envelope %v, members span %v", n.level, *n.env, env)
	}
	return env
}

// A decoded trie must come back with its envelopes filled — they are not in
// the encoding — and must traverse exactly like the trie that was encoded.
func TestEnvelopeBuiltAndDecoded(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range []Config{
		{K: 3, NLAlign: 4, NLPivot: 3, MinNode: 4},
		{K: 0, NLAlign: 2, NLPivot: 2, MinNode: 1},
		DefaultConfig(),
	} {
		trajs := serialTrajs(300, 13)
		built := Build(trajs, cfg)
		dec, err := DecodeBinary(built.AppendBinary(nil), trajs)
		if err != nil {
			t.Fatal(err)
		}
		checkEnvelopes(t, built, built.tree())
		checkEnvelopes(t, dec, dec.tree())
		// An outlier query's whole answer lives on the envelope bound.
		q := []geom.Point{{X: 40, Y: -25}, {X: 41, Y: -25}, {X: 42, Y: -24}}
		for _, m := range []measure.Measure{measure.DTW{}, measure.Frechet{}} {
			want, _ := drain(built.BestFirst(ctx, q, m), func(int) float64 { return math.Inf(1) })
			got, ok := drain(dec.BestFirst(ctx, q, m), func(int) float64 { return math.Inf(1) })
			if !ok || len(got) != len(trajs) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: decoded trie drained %d of %d members (ok=%v), or in another order than the built one",
					m.Name(), len(got), len(trajs), ok)
			}
		}
	}
}

// TestSerialDecodeRejectsCorruption walks every truncation and a bit flip
// in every byte: DecodeBinary must fail or produce a trie that re-encodes
// differently — and must never panic or accept structural nonsense like
// out-of-range leaf indexes. (In the snapshot format a CRC guards this
// payload; this test proves the decoder is safe even without it.)
func TestSerialDecodeRejectsCorruption(t *testing.T) {
	trajs := serialTrajs(25, 9)
	enc := Build(trajs, Config{K: 2, NLAlign: 3, NLPivot: 2, MinNode: 4}).AppendBinary(nil)

	for n := 0; n < len(enc); n++ {
		if _, err := DecodeBinary(enc[:n], trajs); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", n, len(enc))
		}
	}
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x40
		dec, err := DecodeBinary(mut, trajs)
		if err != nil {
			continue
		}
		// Some flips (e.g. in an MBR float) still decode; they must at
		// least survive re-encoding and never corrupt shared state.
		if dec == nil {
			t.Fatalf("flip at byte %d: nil trie without error", i)
		}
		for _, n := range collectLeafIdx(dec.tree()) {
			if n < 0 || n >= len(trajs) {
				t.Fatalf("flip at byte %d: leaf index %d out of range", i, n)
			}
		}
	}

	if _, err := DecodeBinary(enc, trajs[:len(trajs)-1]); err == nil {
		t.Fatal("decode with wrong trajectory slice succeeded")
	}
	if _, err := DecodeBinary(nil, nil); err == nil {
		t.Fatal("decode of empty buffer succeeded")
	}
}

func collectLeafIdx(n *ptrNode) []int {
	if n == nil {
		return nil
	}
	if n.isLeaf() {
		return n.leafIdx
	}
	var out []int
	for _, c := range n.children {
		out = append(out, collectLeafIdx(c)...)
	}
	return out
}
