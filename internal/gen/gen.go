// Package gen synthesizes trajectory workloads that stand in for the
// paper's proprietary datasets (Table 2: Beijing and Chengdu taxi traces,
// OSM GPS traces). The real traces are not redistributable, so the
// experiments run on seeded generators that reproduce the statistics the
// DITA algorithms are sensitive to: spatial locality (trips start near
// hot spots and move along a road-grid-like random walk), trip-length
// distributions (matching Table 2's Avg/Min/MaxLen), and skew.
//
// All generation is deterministic given the seed, and trajectory order is
// pre-shuffled so that Dataset.Sample(rate) yields an unbiased nested
// subsample, matching how the paper's scalability experiments sample.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"dita/internal/geom"
	"dita/internal/traj"
)

// Config parameterizes the generator. The zero value is not useful; start
// from a preset.
type Config struct {
	// Name labels the produced dataset.
	Name string
	// N is the number of trajectories.
	N int
	// Seed drives all randomness.
	Seed int64
	// Extent is the bounding region trips live in, in coordinate units
	// (the paper's coordinates are degrees; τ=0.001 is roughly 111 m).
	Extent geom.MBR
	// Hotspots is the number of trip-origin clusters (city centers, train
	// stations, airports). Origins are drawn from a mixture over these.
	Hotspots int
	// HotspotStd is the standard deviation of origins around a hotspot,
	// as a fraction of the extent's width. Taxi trips leave from dense
	// ranks (stations, malls), so the realistic value is small: many trips
	// share a first point to within the paper's τ range, which is exactly
	// what makes first-point-only filtering (the Simba adaptation)
	// unselective on real data.
	HotspotStd float64
	// MinLen, MaxLen bound trajectory lengths; MeanLen sets the mode of
	// the length distribution (a clamped geometric-ish law, which matches
	// the long-tailed trip lengths of taxi data).
	MinLen, MaxLen int
	MeanLen        float64
	// Step is the typical distance between consecutive points.
	Step float64
	// TurnPersistence in [0,1] is the probability of keeping the current
	// heading quantized to the grid (taxi traces mostly follow streets,
	// so headings persist and turns are right angles).
	TurnPersistence float64
	// GridAngles quantizes headings to multiples of π/2 when true,
	// emulating a street grid (Beijing/Chengdu); false gives free headings
	// (OSM's mixed-object traces).
	GridAngles bool
	// Routes is the number of shared route templates. Real taxi fleets
	// re-drive the same roads, so many trips are near-duplicates of a
	// popular route up to GPS noise — the property that makes the paper's
	// τ range (0.001–0.005, i.e. 111–555 m) produce non-trivial result
	// sets. 0 disables route sharing.
	Routes int
	// RouteFraction is the fraction of trips that follow a route template
	// instead of walking freely.
	RouteFraction float64
	// RouteNoise is the per-point Gaussian noise (std dev, in coordinate
	// units) applied when re-driving a template; ~3e-5 degrees ≈ 3 m GPS
	// error.
	RouteNoise float64
}

// BeijingLike mimics the Beijing taxi dataset scaled to n trajectories:
// short city trips (Table 2: AvgLen 22.2, MinLen 7, MaxLen 112) on a dense
// street grid.
func BeijingLike(n int, seed int64) Config {
	return Config{
		Name:            "BeijingLike",
		N:               n,
		Seed:            seed,
		Extent:          geom.MBR{Min: geom.Point{X: 116.0, Y: 39.6}, Max: geom.Point{X: 116.8, Y: 40.2}},
		Hotspots:        16,
		HotspotStd:      0.004,
		MinLen:          7,
		MaxLen:          112,
		MeanLen:         22.2,
		Step:            0.0015,
		TurnPersistence: 0.85,
		GridAngles:      true,
		Routes:          routeCount(n),
		RouteFraction:   0.65,
		RouteNoise:      3e-5,
	}
}

// ChengduLike mimics the Chengdu taxi dataset: longer trips (AvgLen 37.4,
// MinLen 10, MaxLen 209) over a slightly smaller extent, which makes the
// dataset denser and join workloads heavier — the property the paper's
// Chengdu experiments exercise.
func ChengduLike(n int, seed int64) Config {
	return Config{
		Name:            "ChengduLike",
		N:               n,
		Seed:            seed,
		Extent:          geom.MBR{Min: geom.Point{X: 103.9, Y: 30.5}, Max: geom.Point{X: 104.3, Y: 30.9}},
		Hotspots:        12,
		HotspotStd:      0.008,
		MinLen:          10,
		MaxLen:          209,
		MeanLen:         37.4,
		Step:            0.0012,
		TurnPersistence: 0.85,
		GridAngles:      true,
		Routes:          routeCount(n),
		RouteFraction:   0.65,
		RouteNoise:      3e-5,
	}
}

// OSMLike mimics the paper's OSM-synthesized traces: worldwide clusters of
// long trajectories of various moving objects (AvgLen ~114, MaxLen 3000),
// free headings. OSM(search) and OSM(join) differ only in cardinality.
func OSMLike(n int, seed int64) Config {
	return Config{
		Name:            "OSMLike",
		N:               n,
		Seed:            seed,
		Extent:          geom.MBR{Min: geom.Point{X: -180, Y: -60}, Max: geom.Point{X: 180, Y: 70}},
		Hotspots:        64,
		HotspotStd:      0.0003,
		MinLen:          9,
		MaxLen:          3000,
		MeanLen:         114,
		Step:            0.002,
		TurnPersistence: 0.7,
		GridAngles:      false,
		Routes:          routeCount(n),
		RouteFraction:   0.5,
		RouteNoise:      3e-5,
	}
}

// Generate produces the dataset described by the config.
func Generate(cfg Config) *traj.Dataset {
	if cfg.N < 0 {
		cfg.N = 0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	hot := make([]geom.Point, cfg.Hotspots)
	w := cfg.Extent.Max.X - cfg.Extent.Min.X
	h := cfg.Extent.Max.Y - cfg.Extent.Min.Y
	for i := range hot {
		hot[i] = geom.Point{
			X: cfg.Extent.Min.X + rng.Float64()*w,
			Y: cfg.Extent.Min.Y + rng.Float64()*h,
		}
	}
	// Route templates: canonical trips that followers re-drive with GPS
	// noise. Popularity is skewed (route j is chosen with weight 1/sqrt(j+1)).
	var routes [][]geom.Point
	if cfg.Routes > 0 && cfg.RouteFraction > 0 {
		routes = make([][]geom.Point, cfg.Routes)
		for i := range routes {
			routes[i] = walk(cfg, rng, hot, sampleLen(cfg, rng))
		}
	}
	trajs := make([]*traj.T, cfg.N)
	for i := range trajs {
		if len(routes) > 0 && rng.Float64() < cfg.RouteFraction {
			trajs[i] = &traj.T{ID: i, Points: followRoute(cfg, rng, routes[skewedIndex(rng, len(routes))])}
		} else {
			trajs[i] = &traj.T{ID: i, Points: walk(cfg, rng, hot, sampleLen(cfg, rng))}
		}
	}
	// A pathological config (NaN Step, zero-width Extent with NaN bounds)
	// can produce non-finite walks; drop any invalid trajectory here so bad
	// synthetic data can't poison index construction downstream — same
	// contract as ReadCSV's line validation.
	kept := trajs[:0]
	for _, t := range trajs {
		if t.Validate() == nil {
			kept = append(kept, t)
		}
	}
	trajs = kept
	// Shuffle so prefixes are unbiased samples; the shuffle is part of the
	// seeded generation and therefore deterministic.
	rng.Shuffle(len(trajs), func(i, j int) { trajs[i], trajs[j] = trajs[j], trajs[i] })
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("gen(%d)", cfg.N)
	}
	return traj.NewDataset(name, trajs)
}

// routeCount scales the number of shared route templates with the dataset
// size: one template per ~25 trips, clamped so tiny datasets still share a
// few routes and huge ones don't degenerate into all-unique routes.
func routeCount(n int) int {
	r := n / 25
	if r < 16 {
		r = 16
	}
	if r > 512 {
		r = 512
	}
	return r
}

// skewedIndex draws an index in [0, n) with probability proportional to
// 1/sqrt(i+1): popular routes attract more trips, but no single route
// dominates the dataset.
func skewedIndex(rng *rand.Rand, n int) int {
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Sqrt(float64(i+1))
	}
	u := rng.Float64() * total
	for i := 0; i < n; i++ {
		u -= 1 / math.Sqrt(float64(i+1))
		if u <= 0 {
			return i
		}
	}
	return n - 1
}

// followRoute re-drives a template: every point gets GPS-scale noise, and
// occasional points are dropped or duplicated (sampling jitter), so
// followers of one route are similar but not identical — DTW within a few
// times RouteNoise x length.
func followRoute(cfg Config, rng *rand.Rand, route []geom.Point) []geom.Point {
	minLen := cfg.MinLen
	if minLen < traj.MinLen {
		minLen = traj.MinLen
	}
	maxLen := cfg.MaxLen
	if maxLen < minLen {
		maxLen = minLen
	}
	dropsLeft := len(route) - minLen
	dupsLeft := maxLen - len(route)
	pts := make([]geom.Point, 0, len(route)+2)
	jitter := func(p geom.Point) geom.Point {
		q := geom.Point{X: p.X + rng.NormFloat64()*cfg.RouteNoise, Y: p.Y + rng.NormFloat64()*cfg.RouteNoise}
		return clamp(q, cfg.Extent)
	}
	for _, p := range route {
		r := rng.Float64()
		if r < 0.05 && dropsLeft > 0 {
			dropsLeft--
			continue // dropped sample
		}
		pts = append(pts, jitter(p))
		if r > 0.95 && dupsLeft > 0 {
			dupsLeft--
			pts = append(pts, jitter(p)) // duplicated sample
		}
	}
	for len(pts) < traj.MinLen {
		pts = append(pts, pts[len(pts)-1])
	}
	return pts
}

// walk generates a free road-grid random walk of n points.
func walk(cfg Config, rng *rand.Rand, hot []geom.Point, n int) []geom.Point {
	pts := make([]geom.Point, 0, n)
	// Origin: mixture over hotspots with Gaussian spread, clamped to the
	// extent; a small fraction of trips start anywhere (airport runs,
	// inter-city trips) to create the skew tail.
	var origin geom.Point
	w := cfg.Extent.Max.X - cfg.Extent.Min.X
	h := cfg.Extent.Max.Y - cfg.Extent.Min.Y
	if len(hot) > 0 && rng.Float64() < 0.9 {
		c := hot[rng.Intn(len(hot))]
		std := cfg.HotspotStd * w
		origin = geom.Point{X: c.X + rng.NormFloat64()*std, Y: c.Y + rng.NormFloat64()*std}
	} else {
		origin = geom.Point{X: cfg.Extent.Min.X + rng.Float64()*w, Y: cfg.Extent.Min.Y + rng.Float64()*h}
	}
	origin = clamp(origin, cfg.Extent)
	pts = append(pts, origin)

	heading := rng.Float64() * 2 * math.Pi
	if cfg.GridAngles {
		heading = quantize(heading)
	}
	cur := origin
	for len(pts) < n {
		if rng.Float64() > cfg.TurnPersistence {
			if cfg.GridAngles {
				// Turn left or right at an intersection.
				if rng.Intn(2) == 0 {
					heading += math.Pi / 2
				} else {
					heading -= math.Pi / 2
				}
			} else {
				heading += rng.NormFloat64() * 0.8
			}
		}
		step := cfg.Step * (0.5 + rng.Float64())
		cur = geom.Point{X: cur.X + step*math.Cos(heading), Y: cur.Y + step*math.Sin(heading)}
		if !cfg.Extent.Contains(cur) {
			// Bounce back toward the interior.
			heading += math.Pi
			if cfg.GridAngles {
				heading = quantize(heading)
			}
			cur = clamp(cur, cfg.Extent)
		}
		pts = append(pts, cur)
	}
	return pts
}

// sampleLen draws a trajectory length whose mean approximates cfg.MeanLen
// with a geometric tail, clamped to [MinLen, MaxLen] — the shape of trip
// lengths in taxi data (many short trips, a long tail).
func sampleLen(cfg Config, rng *rand.Rand) int {
	mean := cfg.MeanLen
	if mean < float64(cfg.MinLen) {
		mean = float64(cfg.MinLen)
	}
	// Exponential with the surplus mean on top of MinLen.
	surplus := mean - float64(cfg.MinLen)
	n := cfg.MinLen + int(rng.ExpFloat64()*surplus)
	if n < cfg.MinLen {
		n = cfg.MinLen
	}
	if n > cfg.MaxLen {
		n = cfg.MaxLen
	}
	if n < traj.MinLen {
		n = traj.MinLen
	}
	return n
}

func quantize(a float64) float64 {
	return math.Round(a/(math.Pi/2)) * (math.Pi / 2)
}

func clamp(p geom.Point, m geom.MBR) geom.Point {
	return geom.Point{
		X: math.Min(math.Max(p.X, m.Min.X), m.Max.X),
		Y: math.Min(math.Max(p.Y, m.Min.Y), m.Max.Y),
	}
}

// Queries draws k query trajectories from the dataset uniformly at random
// with the given seed — the paper "randomly sampled 1,000 queries from the
// dataset" (Section 7.2.1).
func Queries(d *traj.Dataset, k int, seed int64) []*traj.T {
	rng := rand.New(rand.NewSource(seed))
	if k > d.Len() {
		k = d.Len()
	}
	idx := rng.Perm(d.Len())[:k]
	qs := make([]*traj.T, k)
	for i, j := range idx {
		qs[i] = d.Trajs[j]
	}
	return qs
}

// OutlierQueries returns three query trajectories far from every member:
// members drawn with the given seed and shifted off the dataset's extent —
// past an edge by most of its width, past another by most of its height,
// and well outside it. Their k-th neighbour is of the order of the extent
// away, so endpoint and pivot bounds admit every member of every partition
// and a kNN answer rests on whole-trajectory bounds; the kNN differential
// tests of core and dnet run them in every index lifecycle state.
func OutlierQueries(d *traj.Dataset, seed int64) []*traj.T {
	rng := rand.New(rand.NewSource(seed))
	ext := geom.EmptyMBR()
	for _, t := range d.Trajs {
		ext = ext.ExtendAll(t.Points)
	}
	w, h := ext.Max.X-ext.Min.X, ext.Max.Y-ext.Min.Y
	var qs []*traj.T
	for i, off := range []geom.Point{{X: 0.6 * w}, {Y: -0.8 * h}, {X: -3 * w, Y: 2 * h}} {
		q := &traj.T{ID: -1 - i}
		for _, p := range d.Trajs[rng.Intn(d.Len())].Points {
			q.Points = append(q.Points, p.Add(off))
		}
		qs = append(qs, q)
	}
	return qs
}

// VerifyWorkload is one pair set of the threshold-kernel and verify-cascade
// micro-benchmarks (measure's BenchmarkDTWThreshold, core's
// BenchmarkVerifyFullCascade). It exists for those benchmarks only — it
// lives here because measure cannot import core and the two must time the
// same pairs; no query path filters with it.
type VerifyWorkload struct {
	Name   string
	Cfg    Config
	Tau    float64
	MinLen int // members shorter than this are left out, on both sides
}

// VerifyWorkloads are the repository benchmark's corpus shape at its search
// and join thresholds, and long OSM-like traces — the paper's regime, where
// a DP that fills all m·n cells hurts most.
var VerifyWorkloads = []VerifyWorkload{
	{"beijing_tau0.003", BeijingLike(20000, 1), 0.003, 0},
	{"beijing_tau0.01", BeijingLike(20000, 1), 0.01, 0},
	{"osm_long_tau0.01", OSMLike(6000, 1), 0.01, 150},
}

// Pairs returns up to max (candidate, query) pairs shaped like the input of
// a threshold search's exact verification: the queries are the dataset's
// first members, and a member is a query's candidate when it passes the two
// O(1) tests every index candidate has passed — the aligned endpoint bound
// dist(t1,q1)+dist(tm,qn) <= tau and mutual MBR coverage (Lemma 5.4). What
// is left is route mates (true matches, the query itself among them) and
// near misses, the mix the threshold DP is actually run on; unrelated random
// walks, which it never sees, are not.
func (w VerifyWorkload) Pairs(max int) (ts, qs []*traj.T) {
	d := Generate(w.Cfg)
	mbrs := make([]geom.MBR, d.Len())
	for i, t := range d.Trajs {
		mbrs[i] = t.MBR()
	}
	for qi, q := range d.Trajs {
		if q.Len() < w.MinLen {
			continue
		}
		qe := mbrs[qi].Expand(w.Tau)
		for ti, t := range d.Trajs {
			if t.Len() < w.MinLen || t.First().Dist(q.First())+t.Last().Dist(q.Last()) > w.Tau ||
				!qe.Covers(mbrs[ti]) || !mbrs[ti].Expand(w.Tau).Covers(mbrs[qi]) {
				continue
			}
			ts, qs = append(ts, t), append(qs, q)
			if len(ts) == max {
				return ts, qs
			}
		}
	}
	return ts, qs
}
