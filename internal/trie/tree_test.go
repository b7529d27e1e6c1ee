package trie

import (
	"dita/internal/geom"
	"dita/internal/traj"
)

// ptrNode is a node as a heap object with child pointers — what the trie was
// made of before it became arrays. Tests that walk a tree, and the
// eager reference build, read and write this form; tree and fromTree convert.
type ptrNode struct {
	level    int
	mbr      geom.MBR
	children []*ptrNode
	leafIdx  []int     // non-nil on a leaf
	env      *geom.MBR // nil on a leaf
}

func (n *ptrNode) isLeaf() bool { return n.leafIdx != nil }

// tree returns the pointer form of t (nil for a trie without nodes).
func (t *Trie) tree() *ptrNode {
	if len(t.nodes) == 0 {
		return nil
	}
	var at func(i uint32) *ptrNode
	at = func(i uint32) *ptrNode {
		n := t.nodes[i]
		p := &ptrNode{level: int(n.level), mbr: t.mbrs[i]}
		if n.isLeaf() {
			p.leafIdx = []int{}
			for _, m := range t.members(n) {
				p.leafIdx = append(p.leafIdx, int(m))
			}
			return p
		}
		p.env = t.env(n)
		for c := i + 1; c < n.link; c = t.after(c) {
			p.children = append(p.children, at(c))
		}
		return p
	}
	return at(0)
}

// fromTree lays a pointer tree out as a Trie.
func fromTree(cfg Config, trajs []*traj.T, root *ptrNode) *Trie {
	t := &Trie{cfg: cfg, Trajs: trajs}
	var put func(p *ptrNode)
	put = func(p *ptrNode) {
		if p.isLeaf() {
			t.leaf(p.level, p.mbr, p.leafIdx)
			return
		}
		self := t.add(node{level: int32(p.level), n: -1}, p.mbr)
		for _, c := range p.children {
			put(c)
		}
		t.nodes[self].link = uint32(len(t.nodes))
	}
	put(root)
	t.fillEnvelopes()
	return t
}
