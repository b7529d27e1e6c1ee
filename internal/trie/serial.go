package trie

import (
	"encoding/binary"
	"fmt"
	"math"

	"dita/internal/geom"
	"dita/internal/pivot"
	"dita/internal/traj"
)

// Binary serialization of the trie for partition snapshots (internal/snap).
//
// The encoding is canonical: building a trie over the same trajectories
// with the same Config and encoding it always produces the same bytes, and
// DecodeBinary(AppendBinary(t)) re-encodes bit-exactly. That determinism is
// what lets snapshot tests assert a cold-started index is byte-identical
// to a fresh build, and what makes content fingerprints meaningful.
//
// Layout (little-endian, fixed width):
//
//	u32 ×5   Config: K, NLAlign, NLPivot, MinNode, Strategy
//	u32      trajectory count (must equal len(trajs) at decode)
//	u8       1 = a root follows (0, "no root", is refused)
//	node tree, preorder:
//	  i32    level
//	  f64 ×4 MBR (Min.X, Min.Y, Max.X, Max.Y; EmptyMBR's ±Inf round-trips)
//	  u8     1 = leaf, 0 = internal
//	  leaf:     u32 index count, then u32 per index (into trajs)
//	  internal: u32 child count, then children recursively
//
// The encoding holds what a descent reads and nothing else. The
// trajectories are not part of it: the caller stores them separately (the
// snapshot's trajectory section) and passes the identical slice to
// DecodeBinary, preserving the clustered-index property that leaves index
// into Trie.Trajs. Nor are the internal nodes' envelopes: DecodeBinary
// recomputes them from that slice, as Build does. Nor are the members'
// indexing points, which only Build reads; snapshot format 1 stored them
// here, and a format-1 file is refused by snap's version check, not read.

// AppendBinary appends the trie's canonical binary encoding to buf and
// returns the extended slice.
func (t *Trie) AppendBinary(buf []byte) []byte {
	u32 := func(v int) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	f64 := func(v float64) {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	u32(t.cfg.K)
	u32(t.cfg.NLAlign)
	u32(t.cfg.NLPivot)
	u32(t.cfg.MinNode)
	u32(int(t.cfg.Strategy))
	u32(len(t.Trajs))
	var walk func(n *node)
	walk = func(n *node) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(n.level)))
		f64(n.mbr.Min.X)
		f64(n.mbr.Min.Y)
		f64(n.mbr.Max.X)
		f64(n.mbr.Max.Y)
		if n.isLeaf() {
			buf = append(buf, 1)
			u32(len(n.leafIdx))
			for _, i := range n.leafIdx {
				u32(i)
			}
			return
		}
		buf = append(buf, 0)
		u32(len(n.children))
		for _, c := range n.children {
			walk(c)
		}
	}
	if t.root == nil {
		// A trie always has a root after Build; encode an explicit marker
		// so decode can reject the impossible case instead of guessing.
		buf = append(buf, 0)
		return buf
	}
	buf = append(buf, 1)
	walk(t.root)
	return buf
}

// serialReader is a strict bounds-checked cursor over an encoded trie.
type serialReader struct {
	data []byte
	off  int
	err  error
}

func (r *serialReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("trie: decode: "+format, args...)
	}
}

func (r *serialReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.off+1 > len(r.data) {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *serialReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.data) {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *serialReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

// DecodeBinary reconstructs a trie from data produced by AppendBinary,
// over the same trajectory slice the encoded trie indexed. It is strict:
// any structural inconsistency (out-of-range leaf index, counts that
// outrun the buffer, trailing bytes) is an error, never a panic — the
// caller treats a failed decode as a corrupt snapshot and rebuilds.
func DecodeBinary(data []byte, trajs []*traj.T) (*Trie, error) {
	r := &serialReader{data: data}
	t := &Trie{}
	t.cfg.K = int(r.u32())
	t.cfg.NLAlign = int(r.u32())
	t.cfg.NLPivot = int(r.u32())
	t.cfg.MinNode = int(r.u32())
	// Strategy is only consulted at Build time; a decoded trie never
	// rebuilds, so any integer value round-trips safely.
	t.cfg.Strategy = pivot.Strategy(r.u32())
	n := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if n != len(trajs) {
		return nil, fmt.Errorf("trie: decode: encoded for %d trajectories, caller holds %d", n, len(trajs))
	}
	t.Trajs = trajs
	switch r.u8() {
	case 0:
		if r.err == nil && r.off != len(data) {
			return nil, fmt.Errorf("trie: decode: %d trailing bytes", len(data)-r.off)
		}
		if r.err != nil {
			return nil, r.err
		}
		return nil, fmt.Errorf("trie: decode: rootless trie")
	case 1:
	default:
		return nil, fmt.Errorf("trie: decode: bad root marker")
	}
	root, err := decodeNode(r, len(trajs), &t.nodes)
	if err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("trie: decode: %d trailing bytes", len(data)-r.off)
	}
	t.root = root
	t.fillEnvelopes()
	return t, nil
}

// decodeNode reads one preorder-encoded node and its subtree.
func decodeNode(r *serialReader, nTrajs int, nodes *int) (*node, error) {
	n := &node{level: int(int32(r.u32()))}
	n.mbr = geom.MBR{
		Min: geom.Point{X: r.f64(), Y: r.f64()},
		Max: geom.Point{X: r.f64(), Y: r.f64()},
	}
	leaf := r.u8()
	cnt := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	*nodes++
	switch leaf {
	case 1:
		if cnt < 0 || cnt > (len(r.data)-r.off)/4 {
			return nil, fmt.Errorf("trie: decode: leaf count %d exceeds buffer", cnt)
		}
		n.leafIdx = make([]int, cnt)
		for i := range n.leafIdx {
			idx := int(r.u32())
			if idx < 0 || idx >= nTrajs {
				r.fail("leaf index %d out of range [0,%d)", idx, nTrajs)
			}
			n.leafIdx[i] = idx
		}
		if cnt == 0 {
			// Preserve the leaf invariant (leafIdx non-nil) for isLeaf.
			n.leafIdx = []int{}
		}
		if r.err != nil {
			return nil, r.err
		}
		return n, nil
	case 0:
		// A child needs at least a level, MBR, marker and count: 41 bytes.
		if cnt < 0 || cnt > (len(r.data)-r.off)/41 {
			return nil, fmt.Errorf("trie: decode: child count %d exceeds buffer", cnt)
		}
		for i := 0; i < cnt; i++ {
			c, err := decodeNode(r, nTrajs, nodes)
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, c)
		}
		if len(n.children) == 0 {
			return nil, fmt.Errorf("trie: decode: internal node with no children")
		}
		return n, nil
	default:
		return nil, fmt.Errorf("trie: decode: bad node marker %d", leaf)
	}
}
