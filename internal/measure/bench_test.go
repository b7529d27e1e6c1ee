package measure

import (
	"math/rand"
	"testing"

	"dita/internal/gen"
	"dita/internal/geom"
)

// BenchmarkDTWThreshold runs exact DTW and the pruned DP DistanceThreshold
// runs (Section 5.3.3) over what a search's verifier is really handed
// (gen.VerifyWorkloads), not over unrelated random walks.
func BenchmarkDTWThreshold(b *testing.B) {
	kernels := []struct {
		name string
		f    func(t, q []geom.Point, tau float64) (float64, bool)
	}{
		{"full", func(t, q []geom.Point, tau float64) (float64, bool) {
			d := DTW{}.Distance(t, q)
			return d, d <= tau
		}},
		{"pruned", dtwPruned},
	}
	for _, w := range gen.VerifyWorkloads {
		ts, qs := w.Pairs(4096)
		for _, k := range kernels {
			b.Run(k.name+"/"+w.Name, func(b *testing.B) {
				b.ReportAllocs()
				accepted := 0
				for i := 0; i < b.N; i++ {
					j := i % len(ts)
					if _, ok := k.f(ts[j].Points, qs[j].Points, w.Tau); ok {
						accepted++
					}
				}
				b.ReportMetric(float64(accepted)/float64(b.N), "accepted/op")
			})
		}
	}
}

func benchPairs(n, length int) ([][]geom.Point, [][]geom.Point) {
	rng := rand.New(rand.NewSource(9))
	mk := func() []geom.Point {
		pts := make([]geom.Point, length)
		x, y := rng.Float64()*10, rng.Float64()*10
		for i := range pts {
			x += rng.NormFloat64() * 0.1
			y += rng.NormFloat64() * 0.1
			pts[i] = geom.Point{X: x, Y: y}
		}
		return pts
	}
	as := make([][]geom.Point, n)
	bs := make([][]geom.Point, n)
	for i := range as {
		as[i], bs[i] = mk(), mk()
	}
	return as, bs
}

func BenchmarkFrechetThresholdReachability(b *testing.B) {
	as, bs := benchPairs(64, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Frechet{}.DistanceThreshold(as[i%64], bs[i%64], 0.5)
	}
}

func BenchmarkEDRBanded(b *testing.B) {
	as, bs := benchPairs(64, 50)
	e := EDR{Eps: 0.2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.DistanceThreshold(as[i%64], bs[i%64], 5)
	}
}

func BenchmarkEDRFull(b *testing.B) {
	as, bs := benchPairs(64, 50)
	e := EDR{Eps: 0.2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Distance(as[i%64], bs[i%64])
	}
}
