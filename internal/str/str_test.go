package str

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dita/internal/geom"
)

func randPoints(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	return pts
}

func TestTilePartitionsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(500)
		k := 1 + rng.Intn(40)
		keys := randPoints(rng, n)
		tiles := Tile(keys, k)
		seen := make([]bool, n)
		for _, tile := range tiles {
			if len(tile) == 0 {
				t.Fatal("empty tile")
			}
			for _, i := range tile {
				if seen[i] {
					t.Fatalf("index %d in two tiles", i)
				}
				seen[i] = true
			}
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("index %d not assigned (n=%d k=%d)", i, n, k)
			}
		}
	}
}

func TestTileBalance(t *testing.T) {
	// STR's guarantee: near-equal cardinality per tile even under heavy
	// skew. We allow a factor-3 spread, far tighter than hash or grid
	// partitioning achieves on this input.
	rng := rand.New(rand.NewSource(2))
	// Heavily skewed: 90% of points in a tiny corner cluster.
	n := 10000
	keys := make([]geom.Point, n)
	for i := range keys {
		if i < n*9/10 {
			keys[i] = geom.Point{X: rng.Float64() * 0.01, Y: rng.Float64() * 0.01}
		} else {
			keys[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		}
	}
	k := 16
	tiles := Tile(keys, k)
	min, max := n, 0
	for _, tile := range tiles {
		if len(tile) < min {
			min = len(tile)
		}
		if len(tile) > max {
			max = len(tile)
		}
	}
	if max > 3*min {
		t.Errorf("imbalanced tiles under skew: min=%d max=%d (k=%d)", min, max, k)
	}
}

func TestTileCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := randPoints(rng, 100)
	if got := len(Tile(keys, 1)); got != 1 {
		t.Errorf("n=1: %d tiles", got)
	}
	if got := len(Tile(keys, 200)); got != 100 {
		t.Errorf("more tiles than points: %d", got)
	}
	if got := Tile(nil, 4); got != nil {
		t.Errorf("empty keys: %v", got)
	}
	if got := Tile(keys, 0); got != nil {
		t.Errorf("k=0: %v", got)
	}
	// Requested k tiles: should produce close to k (within the slab
	// rounding: at most ceil(sqrt(k))^2).
	for _, k := range []int{4, 9, 16, 25} {
		got := len(Tile(keys, k))
		if got < k || got > k+int(2*float64(k)) {
			t.Errorf("k=%d: produced %d tiles", k, got)
		}
	}
}

func TestTileSpatialCoherence(t *testing.T) {
	// Four well-separated clusters, four tiles: each tile should be one
	// cluster (tiles must not straddle clusters).
	rng := rand.New(rand.NewSource(4))
	var keys []geom.Point
	centers := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 100}, {X: 100, Y: 100}}
	for _, c := range centers {
		for i := 0; i < 25; i++ {
			keys = append(keys, geom.Point{X: c.X + rng.Float64(), Y: c.Y + rng.Float64()})
		}
	}
	tiles := Tile(keys, 4)
	mbrs := TileMBRs(keys, tiles)
	for i, m := range mbrs {
		if m.Max.X-m.Min.X > 10 || m.Max.Y-m.Min.Y > 10 {
			t.Errorf("tile %d straddles clusters: %v", i, m)
		}
	}
}

func TestTileMBRsCover(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := randPoints(rng, 300)
	tiles := Tile(keys, 9)
	mbrs := TileMBRs(keys, tiles)
	for ti, tile := range tiles {
		for _, i := range tile {
			if !mbrs[ti].Contains(keys[i]) {
				t.Fatalf("tile %d MBR %v does not contain member %v", ti, mbrs[ti], keys[i])
			}
		}
	}
}

func TestTileDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys := randPoints(rng, 200)
	a := Tile(keys, 8)
	b := Tile(keys, 8)
	if len(a) != len(b) {
		t.Fatal("tile count differs")
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("tile sizes differ")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("tile membership differs")
			}
		}
	}
}

// tileStable is Tile as it was written before its sorts stopped going through
// reflection: two sort.SliceStable passes by key alone. Kept as the reference
// TestTileMatchesStableSort compares against.
func tileStable(keys []geom.Point, n int) [][]int {
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
	s := int(math.Ceil(math.Sqrt(float64(n))))
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		if ka.X != kb.X {
			return ka.X < kb.X
		}
		return ka.Y < kb.Y
	})
	slabs := split(idx, s)
	tilesPerSlab := int(math.Ceil(float64(n) / float64(len(slabs))))
	var out [][]int
	for _, slab := range slabs {
		sort.SliceStable(slab, func(a, b int) bool {
			ka, kb := keys[slab[a]], keys[slab[b]]
			if ka.Y != kb.Y {
				return ka.Y < kb.Y
			}
			return ka.X < kb.X
		})
		out = append(out, split(slab, tilesPerSlab)...)
	}
	return out
}

// TestTileMatchesStableSort pins the tiles — order inside a tile included, the
// trie's leaf order and so the snapshot bytes depend on it — to the stable sort
// Tile used to run, where ties are what could tell the two apart.
func TestTileMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := map[string]func(n int) []geom.Point{
		"random": func(n int) []geom.Point { return randPoints(rng, n) },
		"duplicates": func(n int) []geom.Point {
			// A 3x3 grid of values, signed zeros among them: most keys tie on
			// one coordinate or both.
			vals := []float64{0, math.Copysign(0, -1), 1}
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{X: vals[rng.Intn(3)], Y: vals[rng.Intn(3)]}
			}
			return pts
		},
		"all-equal": func(n int) []geom.Point {
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{X: 4, Y: 2}
			}
			return pts
		},
	}
	for name, gen := range shapes {
		for iter := 0; iter < 100; iter++ {
			n := 1 + rng.Intn(400)
			keys := gen(n)
			// k beyond len(keys) exercises the n > len clamp.
			for _, k := range []int{1, 2, 8, 32, n, n + 5} {
				if got, want := Tile(keys, k), tileStable(keys, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: n=%d k=%d: tiles differ from the stable-sort reference\n got %v\nwant %v", name, n, k, got, want)
				}
			}
		}
	}
}
