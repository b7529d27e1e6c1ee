package core

import (
	"math"
	"sort"
	"sync"
	"time"
)

// costAlpha is the EWMA smoothing factor for per-partition read-cost
// accounting: each new per-query observation contributes 20%, so the
// signal follows a workload shift within a few dozen queries without
// letting one outlier query trigger a cutover.
const costAlpha = 0.2

// costMinQueries is the minimum number of per-query observations a
// partition needs before its cost EWMA is trusted by the planner — a
// partition probed once is not a hotspot, it is noise.
const costMinQueries = 8

// PartitionCost is one partition's smoothed per-query read cost, the
// planner-facing view of the obs funnel: how many candidates survive to
// verification there and how long the partition's share of a query takes.
type PartitionCost struct {
	Pid int
	// Verified is the EWMA of verified-candidate counts per query.
	Verified float64
	// VerifyUS is the EWMA of per-query verify wall time in microseconds
	// (zero on untimed engines, where only Verified carries signal).
	VerifyUS float64
	// Queries is the number of observations folded into the EWMAs.
	Queries int64
}

// cost is the planner's scalar for this partition: wall time when the
// path was timed, verified-candidate count otherwise. The two are never
// mixed across partitions of one tracker — either every observation on
// an engine is timed or none is.
func (pc PartitionCost) cost() float64 {
	if pc.VerifyUS > 0 {
		return pc.VerifyUS
	}
	return pc.Verified
}

// CostTracker accumulates per-partition read-cost EWMAs from the query
// paths. Safe for concurrent use; the zero value is not usable, create
// with NewCostTracker. A nil tracker is a valid disabled tracker: Observe
// and Drop no-op, Snapshot returns nil.
type CostTracker struct {
	mu      sync.Mutex
	entries map[int]*PartitionCost
	dropped map[int]struct{} // retired pids, never observed again
}

// NewCostTracker creates an empty tracker.
func NewCostTracker() *CostTracker {
	return &CostTracker{entries: map[int]*PartitionCost{}, dropped: map[int]struct{}{}}
}

// Observe folds one query's per-partition verify cost into the EWMAs. A
// pid Drop retired is ignored: a query that captured the partition before
// the cutover may report it after.
func (ct *CostTracker) Observe(pid int, verified int64, elapsed time.Duration) {
	if ct == nil {
		return
	}
	us := float64(elapsed.Microseconds())
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if _, gone := ct.dropped[pid]; gone {
		return
	}
	e := ct.entries[pid]
	if e == nil {
		ct.entries[pid] = &PartitionCost{Pid: pid, Verified: float64(verified), VerifyUS: us, Queries: 1}
		return
	}
	e.Verified += costAlpha * (float64(verified) - e.Verified)
	e.VerifyUS += costAlpha * (us - e.VerifyUS)
	e.Queries++
}

// Drop forgets the given partitions for good — called when a cutover
// retires them so their ids (never reused) cannot shadow the fresh pieces'
// signal.
func (ct *CostTracker) Drop(pids ...int) {
	if ct == nil {
		return
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	for _, pid := range pids {
		delete(ct.entries, pid)
		ct.dropped[pid] = struct{}{}
	}
}

// Snapshot returns the tracked costs sorted by partition id.
func (ct *CostTracker) Snapshot() []PartitionCost {
	if ct == nil {
		return nil
	}
	ct.mu.Lock()
	out := make([]PartitionCost, 0, len(ct.entries))
	for _, e := range ct.entries {
		out = append(out, *e)
	}
	ct.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Pid < out[j].Pid })
	return out
}

// CostHot picks the cost-hot partition among the live pids, the online
// form of the paper's 98th-percentile cost division: the candidate must
// carry the maximum smoothed cost, sit at or above the policy's
// percentile of the per-partition cost distribution (live partitions the
// tracker has never seen count as zero-cost), and exceed CostBound times
// the mean cost. Returns the pid and the split fan-out, or (-1, 0) when
// cost-driven splitting is disabled or nothing qualifies. Exported for
// the dnet planner, which shares the policy and tracker types.
func CostHot(ct *CostTracker, live []int, pol RebalancePolicy) (pid, k int) {
	if ct == nil || pol.CostBound <= 0 || len(live) < 2 {
		return -1, 0
	}
	tracked := map[int]PartitionCost{}
	for _, pc := range ct.Snapshot() {
		tracked[pc.Pid] = pc
	}
	costs := make([]float64, 0, len(live))
	hot, hotCost, sum := -1, 0.0, 0.0
	var hotQueries int64
	for _, p := range live {
		c := tracked[p].cost()
		costs = append(costs, c)
		sum += c
		if c > hotCost {
			hot, hotCost, hotQueries = p, c, tracked[p].Queries
		}
	}
	if hot < 0 || hotQueries < costMinQueries {
		return -1, 0
	}
	mean := sum / float64(len(live))
	if mean <= 0 || hotCost <= pol.CostBound*mean || hotCost < percentile(costs, pol.CostPercentile) {
		return -1, 0
	}
	k = int(math.Round(hotCost / mean))
	if k < 2 {
		k = 2
	}
	if k > pol.MaxPieces {
		k = pol.MaxPieces
	}
	return hot, k
}

// PartitionCosts returns the engine's per-partition read-cost EWMAs,
// sorted by partition id. Costs accumulate only on timed query paths
// (tracing or a metrics registry enabled), preserving the clock-free
// hot path of untimed engines.
func (e *Engine) PartitionCosts() []PartitionCost { return e.cost.Snapshot() }

// percentile is the nearest-rank p-th percentile of vals (p in 0..100).
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
