package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/rtree"
	"dita/internal/traj"
)

// The global pruning of Section 5.2, for the engine and the network-mode
// coordinator alike: one lower bound per (query, partition), which the
// threshold search's relevant set, the join's shuffle and the kNN's visit
// order all read, so they can never disagree.

// PartitionLowerBound returns a lower bound on the distance from query q
// to any trajectory in a partition described by its first/last-point MBRs
// (the quantitative form of the global pruning of Section 5.2), generalized
// per measure:
//
//   - Endpoint-anchored, sum-accumulating (DTW):
//     MinDist(q1, MBRf) + MinDist(qn, MBRl).
//   - Endpoint-anchored, max-accumulating (Fréchet):
//     max(MinDist(q1, MBRf), MinDist(qn, MBRl)).
//   - Edit measures: the number of endpoint MBRs farther than ε from every
//     query point (each costs at least one edit).
//   - ERP: like DTW but each term may be satisfied by the gap point, and
//     any query point may align with the partition's endpoints.
//   - Hausdorff: like Fréchet, but any query point may be the one nearest
//     an endpoint.
func PartitionLowerBound(m measure.Measure, q []geom.Point, mbrF, mbrL geom.MBR) float64 {
	if m.AlignsEndpoints() {
		df := mbrF.MinDist(q[0])
		dl := mbrL.MinDist(q[len(q)-1])
		if m.Accumulation() == measure.AccumMax {
			return math.Max(df, dl)
		}
		return df + dl
	}
	gap, hasGap := m.GapPoint()
	df := minDistTrajMBR(q, mbrF)
	dl := minDistTrajMBR(q, mbrL)
	if hasGap {
		if d := mbrF.MinDist(gap); d < df {
			df = d
		}
		if d := mbrL.MinDist(gap); d < dl {
			dl = d
		}
	}
	if m.Accumulation() == measure.AccumEdit {
		cost := 0.0
		if df > m.Epsilon() {
			cost++
		}
		if dl > m.Epsilon() {
			cost++
		}
		return cost
	}
	if m.Accumulation() == measure.AccumMax {
		return math.Max(df, dl)
	}
	return df + dl
}

func minDistTrajMBR(q []geom.Point, m geom.MBR) float64 {
	best := m.MinDist(q[0])
	for _, p := range q[1:] {
		if d := m.MinDist(p); d < best {
			best = d
			if best == 0 {
				break
			}
		}
	}
	return best
}

// TrajRelevant reports whether a trajectory may have answers in a
// partition described by its first/last-point MBRs: the partition's lower
// bound is within τ. The join uses it both to estimate edge weights and for
// the shuffle itself ("we only send the trajectory T ∈ Ti that has
// candidates in Qj").
func TrajRelevant(m measure.Measure, q []geom.Point, mbrF, mbrL geom.MBR, tau float64) bool {
	return PartitionLowerBound(m, q, mbrF, mbrL) <= tau
}

// PairRelevant reports whether two partitions, each described by its
// first/last-point MBRs (a's and b's), may hold a member pair within tau —
// the join's partition-pair pruning, for the engine's bigraph and the
// coordinator's edge plan alike. Only an endpoint-anchored measure prunes:
// its distance includes both endpoint alignments, each at least the
// distance between the partitions' boxes. Every other measure keeps every
// pair.
func PairRelevant(m measure.Measure, aF, aL, bF, bL geom.MBR, tau float64) bool {
	if !m.AlignsEndpoints() {
		return true
	}
	df, dl := aF.MinDistMBR(bF), aL.MinDistMBR(bL)
	if m.Accumulation() == measure.AccumMax {
		return df <= tau && dl <= tau
	}
	return df+dl <= tau
}

// PartBounds is one partition's entry in a global index, indexed by
// partition id. Retired marks a slot emptied by a split or merge: it must
// be skipped by flag, not by its empty boxes — an edit measure turns their
// infinite MinDist into a finite edit count.
type PartBounds struct {
	MBRf, MBRl geom.MBR
	Retired    bool
}

// EndpointBounds returns the boxes over members' first points and over
// their last points: a partition's global-index entry, computed over what it
// holds.
func EndpointBounds(members []*traj.T) (mbrF, mbrL geom.MBR) {
	mbrF, mbrL = geom.EmptyMBR(), geom.EmptyMBR()
	for _, t := range members {
		mbrF, mbrL = mbrF.Extend(t.First()), mbrL.Extend(t.Last())
	}
	return mbrF, mbrL
}

// Route picks the partition a trajectory no partition holds yet joins: of
// the n partitions, bounds(pid) describing each, the live one whose boxes
// are jointly nearest its endpoints — the STR cell it would have landed in
// at partitioning, distance 0 inside both boxes — ties to the lower id; -1
// when none is live. The engine and the coordinator both route with it.
func Route(n int, bounds func(pid int) PartBounds, t *traj.T) int {
	first, last := t.First(), t.Last()
	best, bestD := -1, math.Inf(1)
	for pid := range n {
		b := bounds(pid)
		if b.Retired {
			continue
		}
		if d := b.MBRf.MinDist(first) + b.MBRl.MinDist(last); best < 0 || d < bestD {
			best, bestD = pid, d
		}
	}
	return best
}

// RelevantPartitions returns, ascending, the partitions a threshold search
// at tau cannot exclude: the live ones whose PartitionLowerBound is within
// tau. For an endpoint-anchored measure the two R-trees over the bounds'
// boxes narrow the partitions the bound is computed for — a sum or a
// maximum of two distances within tau has both within tau — and never
// decide; a tree older than the bounds it is paired with only narrows less
// or names a partition retired since.
func RelevantPartitions(m measure.Measure, rtF, rtL *rtree.Tree, bounds []PartBounds, q []geom.Point, tau float64) []int {
	if len(q) == 0 {
		return nil
	}
	var out []int
	relevant := func(pid int) bool {
		b := &bounds[pid]
		return !b.Retired && PartitionLowerBound(m, q, b.MBRf, b.MBRl) <= tau
	}
	if !m.AlignsEndpoints() {
		for pid := range bounds {
			if relevant(pid) {
				out = append(out, pid)
			}
		}
		return out
	}
	nearF := make([]bool, len(bounds))
	for _, en := range rtF.WithinDist(q[0], tau, nil) {
		nearF[en.ID] = true
	}
	for _, en := range rtL.WithinDist(q[len(q)-1], tau, nil) {
		if nearF[en.ID] && relevant(en.ID) {
			out = append(out, en.ID)
		}
	}
	sort.Ints(out)
	return out
}

// KNNVisit is one partition of a kNN plan with its lower bound on the
// distance from the query to any member.
type KNNVisit struct {
	PID int
	LB  float64
}

// KNNOrder returns the live partitions in best-first visit order:
// ascending (PartitionLowerBound, id).
func KNNOrder(m measure.Measure, bounds []PartBounds, q []geom.Point) []KNNVisit {
	order := make([]KNNVisit, 0, len(bounds))
	for pid, b := range bounds {
		if !b.Retired {
			order = append(order, KNNVisit{PID: pid, LB: PartitionLowerBound(m, q, b.MBRf, b.MBRl)})
		}
	}
	slices.SortFunc(order, func(a, b KNNVisit) int {
		return cmp.Or(cmp.Compare(a.LB, b.LB), cmp.Compare(a.PID, b.PID))
	})
	return order
}
