// Package dppool provides pooled scratch buffers for the dynamic-program
// rows the distance kernels (internal/measure) allocate on
// every call. Verification dominates query time once pruning is done
// (Section 5.3), and a verification-heavy query computes thousands of
// threshold distances; without pooling, every one of them allocates and
// discards its DP rows, so the hot path spends its time in the allocator
// and the GC instead of the kernel.
//
// Buffers are pooled by width class — capacity rounded up to the next
// power of two — so trajectories of mixed lengths share buffers instead of
// fragmenting the pool into one bucket per exact length. Get returns a
// handle whose slice is cut to the requested length; Release returns the
// handle (not a fresh box) to its class pool, so steady-state use performs
// zero allocations. All pools are safe for concurrent use (sync.Pool).
package dppool

import (
	"math/bits"
	"sync"
)

// minClassBits is the smallest pooled capacity (2^6 = 64 elements): below
// that, rounding classes up wastes little and keeps the class count small.
const minClassBits = 6

// maxClassBits caps pooled capacities at 2^24 elements (128 MB of float64
// per buffer); wider requests are allocated directly and dropped on
// Release rather than pinned in the pool forever.
const maxClassBits = 24

// classOf returns the pool index for a capacity request, or -1 when the
// request is too large to pool.
func classOf(n int) int {
	if n < 1 {
		n = 1
	}
	bits := bits.Len(uint(n - 1)) // ceil(log2 n)
	if bits < minClassBits {
		bits = minClassBits
	}
	if bits > maxClassBits {
		return -1
	}
	return bits - minClassBits
}

// Floats is a pooled float64 scratch buffer. The slice S has exactly the
// requested length and arbitrary contents — kernels initialize the cells
// they read, exactly as they would with a fresh make.
type Floats struct {
	S     []float64
	class int
}

var floatPools [maxClassBits - minClassBits + 1]sync.Pool

// GetFloats borrows a float64 buffer of length n.
func GetFloats(n int) *Floats {
	c := classOf(n)
	if c < 0 {
		return &Floats{S: make([]float64, n), class: -1}
	}
	if f, _ := floatPools[c].Get().(*Floats); f != nil {
		f.S = f.S[:cap(f.S)][:n]
		return f
	}
	return &Floats{S: make([]float64, n, 1<<(c+minClassBits)), class: c}
}

// Release returns the buffer to its class pool. The caller must not touch
// f or f.S afterwards.
func (f *Floats) Release() {
	if f.class >= 0 {
		floatPools[f.class].Put(f)
	}
}

// Bools is a pooled bool scratch buffer (the Fréchet reachability DP).
type Bools struct {
	S     []bool
	class int
}

var boolPools [maxClassBits - minClassBits + 1]sync.Pool

// GetBools borrows a bool buffer of length n. Contents are arbitrary.
func GetBools(n int) *Bools {
	c := classOf(n)
	if c < 0 {
		return &Bools{S: make([]bool, n), class: -1}
	}
	if b, _ := boolPools[c].Get().(*Bools); b != nil {
		b.S = b.S[:cap(b.S)][:n]
		return b
	}
	return &Bools{S: make([]bool, n, 1<<(c+minClassBits)), class: c}
}

// Release returns the buffer to its class pool.
func (b *Bools) Release() {
	if b.class >= 0 {
		boolPools[b.class].Put(b)
	}
}
