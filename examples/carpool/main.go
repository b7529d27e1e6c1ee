// Carpool: find shareable rides with a trajectory similarity self-join.
//
// The paper's introduction motivates DITA with car pooling: two trips whose
// trajectories are similar end to end could have shared one car. This
// example runs a DTW self-join over a morning's synthetic taxi trips and
// reports the pooling opportunities and the fleet reduction they imply.
package main

import (
	"fmt"
	"log"
	"sort"

	"dita"
)

func main() {
	// A morning of Chengdu-like trips.
	trips := dita.Generate(dita.ChengduLike(4000, 20))
	fmt.Printf("analyzing %d trips for car-pooling opportunities\n", trips.Len())

	opts := dita.DefaultOptions()
	opts.Cluster = dita.NewCluster(4)
	eng, err := dita.NewEngine(trips, opts)
	if err != nil {
		log.Fatal(err)
	}

	// Two trips are poolable when their DTW distance is within ~200 m
	// (0.002 degrees) accumulated over the aligned route.
	const tau = 0.002
	// Joining the engine with itself verifies each pair of trips once.
	pairs := eng.Join(eng, tau, dita.DefaultJoinOptions(), nil)

	// Keep each unordered pair once, drop self-pairs.
	poolable := map[int][]int{}
	count := 0
	for _, p := range pairs {
		if p.T.ID >= p.Q.ID {
			continue
		}
		poolable[p.T.ID] = append(poolable[p.T.ID], p.Q.ID)
		count++
	}
	fmt.Printf("found %d poolable trip pairs (τ=%.3f)\n", count, tau)

	// Greedy matching: pair each trip with its first available partner —
	// a lower bound on how many cars the fleet saves.
	used := map[int]bool{}
	saved := 0
	ids := make([]int, 0, len(poolable))
	for id := range poolable {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if used[id] {
			continue
		}
		for _, partner := range poolable[id] {
			if !used[partner] {
				used[id], used[partner] = true, true
				saved++
				break
			}
		}
	}
	fmt.Printf("greedy matching pools %d trip pairs: %d fewer cars on the road (%.1f%% of the fleet)\n",
		saved, saved, 100*float64(saved)/float64(trips.Len()))

	// Show a few example matches.
	shown := 0
	for _, p := range pairs {
		if p.T.ID >= p.Q.ID {
			continue
		}
		fmt.Printf("  pool trips %d and %d (DTW %.5f, lengths %d/%d)\n",
			p.T.ID, p.Q.ID, p.Distance, p.T.Len(), p.Q.Len())
		if shown++; shown == 5 {
			break
		}
	}
}
