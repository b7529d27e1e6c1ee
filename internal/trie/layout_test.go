package trie

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"dita/internal/gen"
	"dita/internal/geom"
	"dita/internal/traj"
)

// chainEncoding hand-writes a trie encoding over n trajectories: depth
// one-child internal nodes, then one leaf listing idxs.
func chainEncoding(k, n, depth int, idxs []uint32) []byte {
	var b []byte
	for _, v := range []int{k, 2, 2, 1, 0, n} {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	b = append(b, 1) // a root follows
	node := func(level int, marker byte, count int) {
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(level)))
		e := geom.EmptyMBR()
		for _, f := range []float64{e.Min.X, e.Min.Y, e.Max.X, e.Max.Y} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
		b = binary.LittleEndian.AppendUint32(append(b, marker), uint32(count))
	}
	for d := 0; d < depth; d++ {
		node(d-1, 0, 1)
	}
	node(depth-1, 1, len(idxs))
	for _, i := range idxs {
		b = binary.LittleEndian.AppendUint32(b, i)
	}
	return b
}

func iota32(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

// TestDecodeRefusesDeepNesting: a built trie is at most K+2 levels deep, and
// an encoding that nests deeper is refused by a decoder that does not recurse
// — with an error, at any depth, where the recursive one overflowed its stack
// at 4 M levels and handed every descent a million-deep recursion at 1 M.
func TestDecodeRefusesDeepNesting(t *testing.T) {
	trajs := serialTrajs(5, 3)
	const k = 3
	tr, err := DecodeBinary(chainEncoding(k, len(trajs), k+2, iota32(len(trajs))), trajs)
	if err != nil || tr.Depth() != k+2 {
		t.Fatalf("a leaf %d levels down, as deep as Build goes: %v", k+2, err)
	}
	for _, depth := range []int{k + 3, 1 << 10, 1 << 20} {
		if tr, err := DecodeBinary(chainEncoding(k, len(trajs), depth, iota32(len(trajs))), trajs); err == nil || tr != nil {
			t.Fatalf("%d nested levels under K = %d: trie %v, err %v", depth, k, tr != nil, err)
		}
	}
	// Nor does the encoding get to name its own bound.
	if tr, err := DecodeBinary(chainEncoding(1<<21, len(trajs), 1<<20, iota32(len(trajs))), trajs); err == nil || tr != nil {
		t.Fatalf("K = 2^21 in the header: trie %v, err %v", tr != nil, err)
	}
	if got := Build(trajs, Config{K: 1 << 21}).cfg.K; got != maxK {
		t.Fatalf("Build keeps K = %d, above the %d DecodeBinary accepts", got, maxK)
	}
}

// TestDecodeRefusesNonPermutation: the leaves of a trie list every member
// exactly once. An index in range but listed twice — so another is in no
// leaf, invisible to every search — used to decode.
func TestDecodeRefusesNonPermutation(t *testing.T) {
	trajs := serialTrajs(6, 4)
	n := len(trajs)
	for name, idxs := range map[string][]uint32{
		"member 0 twice, member 1 never": {0, 0, 2, 3, 4, 5},
		"a member in no leaf":            {0, 1, 2, 3, 4},
		"one index more than members":    {0, 1, 2, 3, 4, 5, 5},
		"index out of range":             {0, 1, 2, 3, 4, 6},
	} {
		if tr, err := DecodeBinary(chainEncoding(2, n, 1, idxs), trajs); err == nil || tr != nil {
			t.Errorf("%s: trie %v, err %v", name, tr != nil, err)
		}
	}
	if _, err := DecodeBinary(chainEncoding(2, n, 1, []uint32{5, 3, 0, 1, 4, 2}), trajs); err != nil {
		t.Errorf("a permutation in another order: %v", err)
	}
	// The same defect in a built trie's own encoding: its last index repeated
	// over the one before it.
	enc := Build(serialTrajs(40, 5), Config{K: 2, NLAlign: 2, NLPivot: 2, MinNode: 8}).AppendBinary(nil)
	copy(enc[len(enc)-8:len(enc)-4], enc[len(enc)-4:])
	if _, err := DecodeBinary(enc, serialTrajs(40, 5)); err == nil {
		t.Error("a built trie's encoding with one index doubled decoded")
	}
}

// benchTrajs is a partition at the repository benchmark's shape: 1 234
// members of the Beijing-like corpus under DefaultConfig.
func benchTrajs(n int, seed int64) []*traj.T { return gen.Generate(gen.BeijingLike(n, seed)).Trajs }

// TestDecodeAllocations: an image decodes into a constant number of
// allocations — the Trie, its four arrays, the seen-bitset — not one or four
// per member.
func TestDecodeAllocations(t *testing.T) {
	for _, n := range []int{1234, 5000} {
		trajs := benchTrajs(n, 42)
		enc := Build(trajs, DefaultConfig()).AppendBinary(nil)
		if got := testing.AllocsPerRun(10, func() {
			if _, err := DecodeBinary(enc, trajs); err != nil {
				t.Fatal(err)
			}
		}); got > 16 {
			t.Errorf("DecodeBinary over %d members: %v allocations, want <= 16", n, got)
		}
	}
}

// liveBytes is the heap in use once everything unreachable is collected.
func liveBytes() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // the first cycle's garbage is swept by the end of the second
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResidentIndexBytes holds the index to what the flat layout costs on the
// heap at the benchmark's shape — allocator rounding included, trajectories
// excluded — built or decoded: <= 56 B a member (the pointer-node trie held
// 110). SizeBytes is the arrays' own size and may sit below it by that
// rounding only.
func TestResidentIndexBytes(t *testing.T) {
	const parts, n = 16, 1234
	trajs := make([][]*traj.T, parts)
	encs := make([][]byte, parts)
	for i := range trajs {
		trajs[i] = benchTrajs(n, int64(100+i))
		encs[i] = Build(trajs[i], DefaultConfig()).AppendBinary(nil)
	}
	tries := make([]*Trie, parts)
	measure := func(name string, mk func(i int) *Trie) {
		clear(tries)
		before := liveBytes()
		for i := range tries {
			tries[i] = mk(i)
		}
		resident := float64(liveBytes()-before) / (parts * n)
		size := 0
		for _, tr := range tries {
			size += tr.SizeBytes()
		}
		exact := float64(size) / (parts * n)
		t.Logf("%s: resident %.1f B a member, SizeBytes %.1f, %.3f nodes a member", name, resident, exact, float64(tries[0].NodeCount())/n)
		if resident > 56 || exact > resident || exact < resident-8 {
			t.Errorf("%s: resident index %.1f B a member (want <= 56), SizeBytes says %.1f", name, resident, exact)
		}
	}
	measure("Build", func(i int) *Trie { return Build(trajs[i], DefaultConfig()) })
	measure("DecodeBinary", func(i int) *Trie {
		tr, err := DecodeBinary(encs[i], trajs[i])
		if err != nil {
			t.Fatal(err)
		}
		return tr
	})
	runtime.KeepAlive(tries)
	runtime.KeepAlive(encs) // or the last measurement is short by the encodings that died during it
}
