package measure

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"dita/internal/geom"
)

// TestPooledKernelsConcurrent hammers every pooled kernel from many
// goroutines with mixed trajectory lengths, checking each goroutine's
// results against a sequential reference computed up front. Under -race
// this is the data-race check for kernels sharing the dppool buffers.
func TestPooledKernelsConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	lengths := []int{2, 5, 17, 33, 70, 150}
	type pair struct {
		t, q []geom.Point
		dtw  float64
		fre  float64
		edr  float64
		erp  float64
	}
	var pairs []pair
	edr := EDR{Eps: 0.05}
	erp := ERP{}
	for _, m := range lengths {
		for _, n := range lengths {
			p := pair{t: randTraj(r, m), q: randTraj(r, n)}
			p.dtw = DTW{}.Distance(p.t, p.q)
			p.fre = Frechet{}.Distance(p.t, p.q)
			p.edr = edr.Distance(p.t, p.q)
			p.erp = erp.Distance(p.t, p.q)
			pairs = append(pairs, p)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				p := pairs[(g+rep)%len(pairs)]
				if d := (DTW{}).Distance(p.t, p.q); d != p.dtw {
					t.Errorf("concurrent DTW = %g, want %g", d, p.dtw)
					return
				}
				// A threshold a float-width above the distance must accept,
				// with the distance as the value.
				if d, ok := (DTW{}).DistanceThreshold(p.t, p.q, p.dtw*(1+1e-12)); !ok || math.Abs(d-p.dtw) > 1e-9*(1+p.dtw) {
					t.Errorf("concurrent DTWThreshold = %g/%v, want %g", d, ok, p.dtw)
					return
				}
				if d := (Frechet{}).Distance(p.t, p.q); d != p.fre {
					t.Errorf("concurrent Frechet = %g, want %g", d, p.fre)
					return
				}
				if _, ok := (Frechet{}).DistanceThreshold(p.t, p.q, p.fre); !ok {
					t.Error("concurrent Frechet threshold rejected its own distance")
					return
				}
				if d := edr.Distance(p.t, p.q); d != p.edr {
					t.Errorf("concurrent EDR = %g, want %g", d, p.edr)
					return
				}
				if d := erp.Distance(p.t, p.q); d != p.erp {
					t.Errorf("concurrent ERP = %g, want %g", d, p.erp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDTWThresholdSteadyStateAllocs is the allocation regression gate for
// the tentpole: once the pools are warm, threshold DTW must not allocate.
// AllocsPerRun is unreliable under the race detector's instrumented
// allocator, so the check is skipped there (raceEnabled is set by a
// build-tagged sibling file).
func TestDTWThresholdSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	r := rand.New(rand.NewSource(11))
	a, b := randTraj(r, 120), randTraj(r, 120)
	tau := DTW{}.Distance(a, b) // never abandons: full DP both directions
	// Warm the width classes this pair uses.
	DTW{}.DistanceThreshold(a, b, tau)
	allocs := testing.AllocsPerRun(200, func() {
		DTW{}.DistanceThreshold(a, b, tau)
	})
	if allocs > 0.5 {
		t.Errorf("steady-state DTWThreshold allocates %.1f times per call, want 0", allocs)
	}
}

// TestExactKernelsSteadyStateAllocs extends the zero-alloc gate to the
// exact DPs of every pooled measure.
func TestExactKernelsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	r := rand.New(rand.NewSource(13))
	a, b := randTraj(r, 90), randTraj(r, 75)
	edr := EDR{Eps: 0.05}
	erp := ERP{}
	kernels := map[string]func(){
		"dtw":     func() { DTW{}.Distance(a, b) },
		"frechet": func() { Frechet{}.Distance(a, b) },
		"edr":     func() { edr.Distance(a, b) },
		"erp":     func() { erp.Distance(a, b) },
	}
	for name, k := range kernels {
		k() // warm the pool
		if allocs := testing.AllocsPerRun(100, k); allocs > 0.5 {
			t.Errorf("%s: steady-state Distance allocates %.1f times per call, want 0", name, allocs)
		}
	}
}
