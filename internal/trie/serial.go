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
//	  internal: u32 child count, then the children
//
// which is Trie.nodes, Trie.mbrs and Trie.leaves interleaved: an internal
// node's link and every leaf's offset are what decoding adds, an internal
// node's child count what encoding counts back.
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
	if len(t.nodes) == 0 {
		// A trie always has a root after Build; encode an explicit marker
		// so decode can reject the impossible case instead of guessing.
		return append(buf, 0)
	}
	buf = append(buf, 1)
	for i, n := range t.nodes { // the arrays are in the encoding's order
		u32(int(n.level))
		mbr := t.mbrs[i]
		f64(mbr.Min.X)
		f64(mbr.Min.Y)
		f64(mbr.Max.X)
		f64(mbr.Max.Y)
		if !n.isLeaf() {
			children := 0
			for c := uint32(i) + 1; c < n.link; c = t.after(c) {
				children++
			}
			buf = append(buf, 0)
			u32(children)
			continue
		}
		buf = append(buf, 1)
		u32(int(n.n))
		for _, m := range t.members(n) {
			u32(int(m))
		}
	}
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

// nodeBytes is the encoded size of a node without its leaf indices: level,
// MBR, marker, count.
const nodeBytes = 4 + 4*8 + 1 + 4

// DecodeBinary reconstructs a trie from data produced by AppendBinary,
// over the same trajectory slice the encoded trie indexed. It is strict:
// any structural inconsistency (a leaf index out of range or listed twice, a
// member in no leaf, a node nested deeper than Build nests, counts that
// outrun the buffer, trailing bytes) is an error, never a panic — the
// caller treats a failed decode as a corrupt snapshot and rebuilds. One pass,
// no recursion, and no allocation that grows with the node count beyond the
// arrays themselves.
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
	if t.cfg.K > maxK {
		return nil, fmt.Errorf("trie: decode: K = %d, Build caps it at %d", t.cfg.K, maxK)
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
	// The leaves hold each of the n members once, so what is left after n
	// indices is whole nodes: the arrays are sized before a node is read.
	body := len(data) - r.off - 4*n
	if n > math.MaxInt32 || body < nodeBytes || body%nodeBytes != 0 {
		return nil, fmt.Errorf("trie: decode: %d bytes are not %d leaf indices and whole nodes", len(data)-r.off, n)
	}
	t.nodes = make([]node, 0, body/nodeBytes)
	t.mbrs = make([]geom.MBR, 0, body/nodeBytes)
	t.leaves = make([]uint32, 0, n)
	seen := make([]uint64, (n+63)/64) // members some leaf already lists
	// open is the path of internal nodes with children still to come: root,
	// then at most one node a level. Build stops splitting at level K+2.
	type frame struct{ node, left uint32 }
	var buf [16]frame
	open := buf[:0]
	for {
		level := int32(r.u32())
		mbr := geom.MBR{
			Min: geom.Point{X: r.f64(), Y: r.f64()},
			Max: geom.Point{X: r.f64(), Y: r.f64()},
		}
		marker := r.u8()
		count := r.u32()
		if r.err != nil {
			return nil, r.err
		}
		if len(t.nodes) == cap(t.nodes) {
			return nil, fmt.Errorf("trie: decode: more than %d nodes beside %d leaf indices", cap(t.nodes), n)
		}
		switch marker {
		case 0:
			if count == 0 {
				return nil, fmt.Errorf("trie: decode: internal node with no children")
			}
			if len(open) == t.cfg.K+2 {
				return nil, fmt.Errorf("trie: decode: node nested deeper than K+2 = %d levels", t.cfg.K+2)
			}
			open = append(open, frame{node: uint32(t.add(node{level: level, n: -1}, mbr)), left: count})
			continue
		case 1:
			if uint64(count) > uint64(n-len(t.leaves)) {
				return nil, fmt.Errorf("trie: decode: leaves list more than %d members", n)
			}
			t.add(node{level: level, link: uint32(len(t.leaves)), n: int32(count)}, mbr)
			for j := uint32(0); j < count; j++ {
				m := r.u32()
				if int(m) >= n {
					r.fail("leaf index %d out of range [0,%d)", m, n)
				} else if seen[m/64]&(1<<(m%64)) != 0 {
					r.fail("member %d is in two leaves", m)
				} else {
					seen[m/64] |= 1 << (m % 64)
				}
				t.leaves = append(t.leaves, m)
			}
			if r.err != nil {
				return nil, r.err
			}
		default:
			return nil, fmt.Errorf("trie: decode: bad node marker %d", marker)
		}
		// A subtree is complete: close every ancestor it was the last child of.
		for len(open) > 0 {
			top := &open[len(open)-1]
			if top.left--; top.left > 0 {
				break
			}
			t.nodes[top.node].link = uint32(len(t.nodes))
			open = open[:len(open)-1]
		}
		if len(open) == 0 {
			break
		}
	}
	// Neither array outgrew its capacity, so once every byte is read both
	// are full: n indices, none twice, is every member once.
	if r.off != len(data) {
		return nil, fmt.Errorf("trie: decode: %d bytes beyond the root's subtree: trailing, or leaves that list fewer than %d members", len(data)-r.off, n)
	}
	t.fillEnvelopes()
	return t, nil
}
