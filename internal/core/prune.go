package core

import (
	"cmp"
	"slices"

	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/traj"
)

// The global pruning of Section 5.2, for the engine and the network-mode
// coordinator alike: one lower bound per (query, partition), which the
// threshold search's relevant set, the join's shuffle and the kNN's visit
// order all read, so they can never disagree.

// PartitionLowerBound returns a lower bound on the distance from query q
// to any trajectory in a partition described by its first/last-point MBRs
// (the quantitative form of the global pruning of Section 5.2): the bounds
// on a member's first- and last-point terms, folded as the trie's first
// two levels fold them (measure.PathBound) — summed for DTW and ERP, maxed
// for Fréchet and Hausdorff, counted as edits past ε for EDR and LCSS. An
// endpoint-anchored measure (DTW, Fréchet) matches the endpoints against
// q₁ and qₙ; every other one against the nearest query point, or the gap
// point under ERP.
func PartitionLowerBound(m measure.Measure, q []geom.Point, mbrF, mbrL geom.MBR) float64 {
	if m.AlignsEndpoints() {
		return endpointBound(m, mbrF.MinDist(q[0]), mbrL.MinDist(q[len(q)-1]))
	}
	df, dl := minDistTrajMBR(q, mbrF), minDistTrajMBR(q, mbrL)
	if gap, ok := m.GapPoint(); ok {
		df, dl = min(df, mbrF.MinDist(gap)), min(dl, mbrL.MinDist(gap))
	}
	return endpointBound(m, df, dl)
}

// endpointBound folds the bounds df and dl on a member's first- and
// last-point terms into one value.
func endpointBound(m measure.Measure, df, dl float64) float64 {
	a, eps := m.Accumulation(), m.Epsilon()
	return a.Fold(a.Fold(measure.PathBound{}, df, eps, false), dl, eps, true).Value()
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
	return endpointBound(m, aF.MinDistMBR(bF), aL.MinDistMBR(bL)) <= tau
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
