// Package mining builds the trajectory-analytics operations the paper's
// related work surveys (Section 2.3: clustering, frequent routes) on top
// of the DITA engine's similarity primitives — the "analytics" in
// Distributed In-memory Trajectory Analytics.
//
// Every operation reads the τ-similarity graph over the engine's dataset,
// which one symmetric self-join of the engine computes (tauGraph):
//
//   - Cluster: density-peaks-flavored medoid clustering. Medoids are chosen
//     by descending neighborhood size, and members attach to the first
//     medoid within τ — one pass over the τ-similarity graph, no iteration.
//   - FrequentRoutes: the connected components of the τ-similarity graph
//     with at least MinSupport members, ranked by support, each summarized
//     by its medoid — "frequent trajectory based navigation" (Section 1).
package mining

import (
	"sort"

	"dita/internal/core"
	"dita/internal/traj"
)

// Cluster is one group of mutually similar trajectories.
type Cluster struct {
	// Medoid is the representative trajectory (the member with the most
	// τ-neighbors inside the cluster).
	Medoid *traj.T
	// Members holds the cluster's trajectories, medoid included.
	Members []*traj.T
}

// Support returns the cluster size.
func (c *Cluster) Support() int { return len(c.Members) }

// Options tunes the mining operations.
type Options struct {
	// Tau is the similarity threshold defining the neighborhood graph.
	Tau float64
	// MinSupport drops clusters/routes with fewer members (default 2).
	MinSupport int
}

// Clusters groups the engine's dataset by similarity: trajectories within
// Tau of a chosen medoid join its cluster; trajectories with no medoid
// within Tau become singleton clusters (dropped unless MinSupport <= 1).
// Clusters are returned by descending support, ties by medoid ID.
func Clusters(e *core.Engine, opts Options) []*Cluster {
	if opts.MinSupport < 1 {
		opts.MinSupport = 2
	}
	d := e.Dataset()
	n := d.Len()
	if n == 0 {
		return nil
	}
	neighbors := tauGraph(e, opts.Tau)
	// Candidate medoids by descending degree (deterministic tie-break).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := len(neighbors[order[a]]), len(neighbors[order[b]])
		if da != db {
			return da > db
		}
		return d.Trajs[order[a]].ID < d.Trajs[order[b]].ID
	})
	assigned := make([]bool, n)
	var out []*Cluster
	for _, i := range order {
		if assigned[i] {
			continue
		}
		c := &Cluster{Medoid: d.Trajs[i]}
		for _, j := range neighbors[i] {
			if !assigned[j] {
				assigned[j] = true
				c.Members = append(c.Members, d.Trajs[j])
			}
		}
		if c.Support() >= opts.MinSupport {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Support() != out[b].Support() {
			return out[a].Support() > out[b].Support()
		}
		return out[a].Medoid.ID < out[b].Medoid.ID
	})
	return out
}

// Route is a frequent route: a connected component of the τ-similarity
// graph, summarized by its highest-degree member.
type Route struct {
	// Representative is the component's highest-degree trajectory.
	Representative *traj.T
	// Support is the number of trips on the route.
	Support int
	// TripIDs lists the member trajectory IDs, ascending.
	TripIDs []int
}

// FrequentRoutes extracts the frequently driven routes: connected
// components of the τ-similarity graph with at least MinSupport trips,
// by descending support.
func FrequentRoutes(e *core.Engine, opts Options) []Route {
	if opts.MinSupport < 1 {
		opts.MinSupport = 2
	}
	d := e.Dataset()
	n := d.Len()
	if n == 0 {
		return nil
	}
	// Union-find over the similarity edges.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	degree := make([]int, n)
	for i, nb := range tauGraph(e, opts.Tau) {
		for _, j := range nb {
			if j != i {
				union(i, j)
				degree[i]++
			}
		}
	}
	comps := map[int][]int{}
	for i := 0; i < n; i++ {
		comps[find(i)] = append(comps[find(i)], i)
	}
	var out []Route
	for _, members := range comps {
		if len(members) < opts.MinSupport {
			continue
		}
		best := members[0]
		ids := make([]int, 0, len(members))
		for _, m := range members {
			ids = append(ids, d.Trajs[m].ID)
			if degree[m] > degree[best] || (degree[m] == degree[best] && d.Trajs[m].ID < d.Trajs[best].ID) {
				best = m
			}
		}
		sort.Ints(ids)
		out = append(out, Route{Representative: d.Trajs[best], Support: len(members), TripIDs: ids})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Support != out[b].Support {
			return out[a].Support > out[b].Support
		}
		return out[a].Representative.ID < out[b].Representative.ID
	})
	return out
}

// Outliers returns trajectories with fewer than minNeighbors τ-neighbors
// (excluding themselves) — the partition-and-detect style outlier notion
// of the related work, reduced to neighborhood counting.
func Outliers(e *core.Engine, tau float64, minNeighbors int) []*traj.T {
	d := e.Dataset()
	var out []*traj.T
	for i, nb := range tauGraph(e, tau) {
		others := 0
		for _, j := range nb {
			if j != i {
				others++
			}
		}
		if others < minNeighbors {
			out = append(out, d.Trajs[i])
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// tauGraph is the τ-similarity graph over e.Dataset().Trajs as adjacency
// lists of positions in that slice, each ascending by ID and holding the
// member itself: one self-join, whose pairs come in both orientations plus
// each member with itself, sorted by (T.ID, Q.ID). Only the dataset's
// members are nodes: a pair with an end inserted since the build is
// dropped, and a member deleted since is not visible, so it has no
// neighbors — not even itself.
func tauGraph(e *core.Engine, tau float64) [][]int {
	d := e.Dataset()
	pos := make(map[int]int, d.Len())
	for i, t := range d.Trajs {
		pos[t.ID] = i
	}
	out := make([][]int, d.Len())
	for _, p := range e.Join(e, tau, core.DefaultJoinOptions(), nil) {
		i, iok := pos[p.T.ID]
		j, jok := pos[p.Q.ID]
		if iok && jok {
			out[i] = append(out[i], j)
		}
	}
	return out
}
