// Quickstart: generate a city-scale trajectory dataset, build the DITA
// index, and run a similarity search, a kNN query, and a self-join.
package main

import (
	"fmt"
	"log"

	"dita"
)

func main() {
	// 1. Data: 5,000 Beijing-like taxi trips (seeded, deterministic).
	data := dita.Generate(dita.BeijingLike(5000, 1))
	s := data.Stats()
	fmt.Printf("dataset: %d trajectories, avg length %.1f points\n", s.Cardinality, s.AvgLen)

	// 2. Index: first/last STR partitioning + global R-trees + local
	// pivot tries, on a simulated 4-worker cluster.
	opts := dita.DefaultOptions()
	opts.Cluster = dita.NewCluster(4)
	engine, err := dita.NewEngine(data, opts)
	if err != nil {
		log.Fatal(err)
	}
	global, local := engine.IndexSizeBytes()
	fmt.Printf("index built in %v (global %.1f KB, local %.1f KB)\n",
		engine.BuildTime, float64(global)/1e3, float64(local)/1e3)

	// 3. Similarity search: trajectories within τ of a query (τ=0.005 is
	// roughly 555 m in degree units).
	q := dita.Queries(data, 1, 7)[0]
	var stats dita.SearchStats
	results := engine.Search(q, 0.005, &stats)
	fmt.Printf("search τ=0.005: %d results (%d/%d partitions probed, %d candidates)\n",
		len(results), stats.RelevantPartitions, len(engine.Partitions()), stats.Candidates)
	for i, r := range results {
		if i == 5 {
			fmt.Printf("  ...\n")
			break
		}
		fmt.Printf("  traj %-6d DTW=%.5f\n", r.Traj.ID, r.Distance)
	}

	// 4. kNN: the 5 most similar trajectories, no threshold needed.
	knn := engine.SearchKNN(q, 5)
	fmt.Println("5 nearest neighbors:")
	for _, r := range knn {
		fmt.Printf("  traj %-6d DTW=%.5f\n", r.Traj.ID, r.Distance)
	}

	// 5. Self-join: all similar pairs at a tight threshold. Joining the
	// engine with itself verifies each unordered pair once; pass a second
	// engine to join two collections.
	var jstats dita.JoinStats
	pairs := engine.Join(engine, 0.001, dita.DefaultJoinOptions(), &jstats)
	fmt.Printf("self-join τ=0.001: %d pairs (%d partition edges, %d trajectories shuffled, load ratio %.2f)\n",
		len(pairs), jstats.Edges, jstats.TrajsSent, jstats.LoadRatio)
}
