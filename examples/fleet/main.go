// Fleet route consolidation: simplify raw GPS traces, then use the kNN
// join to find, for every trip, its most similar other trip — the building
// block for route deduplication and frequent-route mining (the paper's
// "road planning" and "transportation optimization" motivations).
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"dita"
)

func main() {
	raw := dita.Generate(dita.BeijingLike(2000, 70))
	rawStats := raw.Stats()

	// 1. Preprocess: simplify each trace with a ~10 m error bound. This is
	// what a fleet backend does before indexing raw GPS.
	trips := dita.Simplify(raw, 0.0001)
	simpStats := trips.Stats()
	fmt.Printf("simplification: %d -> %d points (%.0f%% smaller), max error <= 0.0001 deg\n",
		rawStats.TotalPoints, simpStats.TotalPoints,
		100*(1-float64(simpStats.TotalPoints)/float64(rawStats.TotalPoints)))

	// 2. Index both sides and run the 2-NN join (nearest non-self
	// neighbor for every trip).
	opts := dita.DefaultOptions()
	opts.Cluster = dita.NewCluster(4)
	left, err := dita.NewEngine(trips, opts)
	if err != nil {
		log.Fatal(err)
	}
	right, err := dita.NewEngine(trips, opts)
	if err != nil {
		log.Fatal(err)
	}
	nn, err := left.KNNJoinContext(context.Background(), right, 2, nil)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Trips whose nearest non-self neighbor is very close are
	// duplicates of an existing route; everything else is a unique route.
	type dup struct {
		id, mate int
		d        float64
	}
	var dups []dup
	for id, res := range nn {
		for _, r := range res {
			if r.Traj.ID != id {
				if r.Distance < 0.002 {
					dups = append(dups, dup{id, r.Traj.ID, r.Distance})
				}
				break
			}
		}
	}
	sort.Slice(dups, func(i, j int) bool { return dups[i].d < dups[j].d })
	fmt.Printf("%d of %d trips are near-duplicates of another trip\n", len(dups), trips.Len())
	fmt.Printf("=> a route library needs only ~%d canonical routes\n", trips.Len()-len(dups)/2)
	for i, d := range dups {
		if i == 5 {
			break
		}
		fmt.Printf("  trip %-5d duplicates trip %-5d (DTW %.5f)\n", d.id, d.mate, d.d)
	}
}
