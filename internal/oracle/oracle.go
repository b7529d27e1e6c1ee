// Package oracle defines what a correct answer is. Each query the paper
// defines by one predicate (PAPER.md §1) is answered here by brute force
// over the members a query must see, with the exact kernel
// measure.Measure.Distance(member, query), and nothing else:
//
//   - Search: every member with Distance ≤ τ, τ inclusive, ascending by id;
//   - KNN: every member sorted by (Distance, id), trimmed to min(k, n);
//   - Join: every (T, Q) with T from the left side and Q from the right
//     within τ, ascending by (T, Q);
//   - SelfJoin: each unordered pair of members computed once and reported
//     in both orientations with the same bits, a member paired with itself
//     once.
//
// DiffSearch, DiffKNN and DiffJoin hold an answer to the oracle's, id for
// id and distance for distance by math.Float64bits: no tolerance. A test
// converts its own result type to Hit or Pair with a one-line adapter.
//
// The package is a leaf (it imports traj and measure only) so every layer's
// tests can use it, and it is the only place a brute-force answer is
// computed (internal/archtest keeps it so).
package oracle

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dita/internal/measure"
	"dita/internal/traj"
)

// Hit is one member of a search or kNN answer.
type Hit struct {
	ID       int
	Distance float64
}

// Pair is one pair of a join answer: T from the left side, Q from the right.
type Pair struct {
	T, Q     int
	Distance float64
}

// Search returns every member whose distance to q is at most tau, ascending
// by id (members sharing an id by distance).
func Search(members []*traj.T, m measure.Measure, q *traj.T, tau float64) []Hit {
	var out []Hit
	for _, t := range members {
		if d := m.Distance(t.Points, q.Points); d <= tau {
			out = append(out, Hit{t.ID, d})
		}
	}
	return SortByID(out)
}

// KNN returns the min(k, n) members nearest q, ascending by (distance, id).
func KNN(members []*traj.T, m measure.Measure, q *traj.T, k int) []Hit {
	out := make([]Hit, len(members))
	for i, t := range members {
		out[i] = Hit{t.ID, m.Distance(t.Points, q.Points)}
	}
	slices.SortStableFunc(out, func(a, b Hit) int {
		return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.ID, b.ID))
	})
	return out[:max(0, min(k, len(out)))]
}

// Join returns every pair (T, Q), T from left and Q from right, with
// Distance(T, Q) ≤ tau, ascending by (T, Q, Distance).
func Join(left, right []*traj.T, m measure.Measure, tau float64) []Pair {
	var out []Pair
	for _, t := range left {
		for _, q := range right {
			if d := m.Distance(t.Points, q.Points); d <= tau {
				out = append(out, Pair{t.ID, q.ID, d})
			}
		}
	}
	return SortPairs(out)
}

// SelfJoin returns the join of members with themselves by each unordered
// pair once: members i < j (by position) are measured once, as
// Distance(members[i], members[j]), and reported as (i, j) and (j, i) with
// those bits; a member is paired with itself once. Members that share an
// id are distinct members. Ascending by (T, Q, Distance).
func SelfJoin(members []*traj.T, m measure.Measure, tau float64) []Pair {
	var out []Pair
	for i, a := range members {
		for j := i; j < len(members); j++ {
			b := members[j]
			if d := m.Distance(a.Points, b.Points); d <= tau {
				out = append(out, Pair{a.ID, b.ID, d})
				if j != i {
					out = append(out, Pair{b.ID, a.ID, d})
				}
			}
		}
	}
	return SortPairs(out)
}

// SortByID sorts a search answer in place into the oracle's order,
// ascending by (id, distance), and returns it: for a layer whose search
// answer has no order of its own.
func SortByID(hs []Hit) []Hit {
	slices.SortStableFunc(hs, func(a, b Hit) int {
		return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.Distance, b.Distance))
	})
	return hs
}

// SortPairs sorts a join answer in place into the oracle's order, ascending
// by (T, Q, distance), and returns it: for a layer that orders its pairs by
// (T, Q) only, so members sharing ids may come in either order.
func SortPairs(ps []Pair) []Pair {
	slices.SortStableFunc(ps, func(a, b Pair) int {
		return cmp.Or(cmp.Compare(a.T, b.T), cmp.Compare(a.Q, b.Q), cmp.Compare(a.Distance, b.Distance))
	})
	return ps
}

// IDs returns the ids of hs in order, for a layer whose answer carries no
// distance.
func IDs(hs []Hit) []int {
	out := make([]int, len(hs))
	for i, h := range hs {
		out[i] = h.ID
	}
	return out
}

// DiffSearch returns nil when got is the search answer want, hit for hit in
// order (ascending id), distances bit for bit, else the first difference.
func DiffSearch(got, want []Hit) error { return diff("hit", got, want, Hit.key) }

// DiffKNN returns nil when got is the kNN answer want, neighbour for
// neighbour in (distance, id) order, distances bit for bit, else the first
// difference.
func DiffKNN(got, want []Hit) error { return diff("neighbour", got, want, Hit.key) }

// DiffJoin returns nil when got is the join answer want, pair for pair in
// order (ascending (T, Q)), distances bit for bit, else the first
// difference.
func DiffJoin(got, want []Pair) error { return diff("pair", got, want, Pair.key) }

// diff compares got with want element by element through key, which holds
// a distance as its bits: == then tells 0 from -0, and a NaN equals itself.
func diff[E fmt.Stringer, K comparable](what string, got, want []E, key func(E) K) error {
	for i := 0; i < min(len(got), len(want)); i++ {
		if key(got[i]) != key(want[i]) {
			return fmt.Errorf("%s %d is %v, want %v", what, i, got[i], want[i])
		}
	}
	switch {
	case len(got) > len(want):
		return fmt.Errorf("%d %ss, want %d: first extra %v", len(got), what, len(want), got[len(want)])
	case len(got) < len(want):
		return fmt.Errorf("%d %ss, want %d: first missing %v", len(got), what, len(want), want[len(got)])
	}
	return nil
}

func (h Hit) key() [2]uint64 { return [2]uint64{uint64(h.ID), math.Float64bits(h.Distance)} }

func (p Pair) key() [3]uint64 {
	return [3]uint64{uint64(p.T), uint64(p.Q), math.Float64bits(p.Distance)}
}

// String shows the distance with its bits, so two values fmt prints alike
// are told apart.
func (h Hit) String() string { return fmt.Sprintf("%d at %s", h.ID, showBits(h.Distance)) }

func (p Pair) String() string {
	return fmt.Sprintf("(%d,%d) at %s", p.T, p.Q, showBits(p.Distance))
}

func showBits(d float64) string { return fmt.Sprintf("%v [%#016x]", d, math.Float64bits(d)) }
