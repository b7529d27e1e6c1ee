// Package str implements Sort-Tile-Recursive (STR) tiling [Leutenegger et
// al., ICDE 1997], the partitioning primitive DITA uses everywhere it needs
// to split a point set into roughly equal-sized, spatially coherent groups:
// the NG×NG global partitioning of trajectories by first/last point
// (Section 4.2.1), the NL-way grouping inside each trie node (Section
// 4.2.3), and R-tree bulk loading.
//
// STR sorts the points by x, slices them into ⌈√n⌉ vertical slabs of equal
// cardinality, then sorts each slab by y and slices it into tiles of equal
// cardinality. Every tile ends up with ⌈N/n⌉ points regardless of skew,
// which is the load-balance property the paper relies on ("each partition
// has roughly the same number of points, even for highly skewed data").
package str

import (
	"cmp"
	"math"
	"slices"

	"dita/internal/geom"
)

// Tile groups the items with the given keys into at most n tiles using
// STR. It returns, for each tile, the indices (into keys) of its members.
// Tiles are never empty; fewer than n tiles are returned when there are
// fewer than n keys.
func Tile(keys []geom.Point, n int) [][]int {
	if n <= 0 || len(keys) == 0 {
		return nil
	}
	if n > len(keys) {
		n = len(keys)
	}
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	if n == 1 {
		return [][]int{idx}
	}
	// S vertical slabs, each split into about n/S tiles.
	s := int(math.Ceil(math.Sqrt(float64(n))))
	// Both sorts break key ties by index: idx starts ascending, so this is
	// the order a stable sort by key gives, without sort.SliceStable's
	// reflection-based swaps.
	slices.SortFunc(idx, func(a, b int) int {
		return order(keys[a].X, keys[b].X, keys[a].Y, keys[b].Y, a, b)
	})
	slabs := split(idx, s)
	tilesPerSlab := int(math.Ceil(float64(n) / float64(len(slabs))))
	var out [][]int
	for _, slab := range slabs {
		slices.SortFunc(slab, func(a, b int) int {
			return order(keys[a].Y, keys[b].Y, keys[a].X, keys[b].X, a, b)
		})
		out = append(out, split(slab, tilesPerSlab)...)
	}
	return out
}

// order compares two keys by their major coordinate, then their minor one,
// then their index.
func order(majA, majB, minA, minB float64, a, b int) int {
	if c := cmp.Compare(majA, majB); c != 0 {
		return c
	}
	if c := cmp.Compare(minA, minB); c != 0 {
		return c
	}
	return a - b
}

// split divides items into at most k contiguous, non-empty chunks of
// near-equal size.
func split(items []int, k int) [][]int {
	if k <= 0 {
		k = 1
	}
	if k > len(items) {
		k = len(items)
	}
	if k == 0 {
		return nil
	}
	out := make([][]int, 0, k)
	base := len(items) / k
	rem := len(items) % k
	start := 0
	for i := 0; i < k; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, items[start:start+size])
		start += size
	}
	return out
}

// TileMBRs returns the MBR of each tile produced by Tile for the given
// keys.
func TileMBRs(keys []geom.Point, tiles [][]int) []geom.MBR {
	out := make([]geom.MBR, len(tiles))
	for i, tile := range tiles {
		m := geom.EmptyMBR()
		for _, j := range tile {
			m = m.Extend(keys[j])
		}
		out[i] = m
	}
	return out
}
