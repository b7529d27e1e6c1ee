package dnet

import (
	"strconv"
	"time"

	"dita/internal/core"
	"dita/internal/obs"
)

// QueryStats collects one distributed query's observability: set Trace to
// a live *obs.Trace before the call to receive the coordinator-assembled
// whole-cluster span report; the remaining fields are filled on return.
// Pass nil (or leave Trace nil) to keep the query clock-free apart from
// whatever the coordinator's metrics registry requires.
type QueryStats struct {
	// Trace, when non-nil, receives spans for admission wait, global
	// pruning, every partition/edge RPC (worker address, attempts,
	// remote compute time, partition-local funnel), skips, and the merge.
	Trace *obs.Trace
	// Funnel is the whole-query pruning funnel: global stages measured by
	// the coordinator, local stages summed from the worker replies.
	Funnel obs.Funnel
	// Attempts is the total RPC attempts the query issued, including
	// managed-client retries and replica failovers. Relevant partitions
	// reached on the first try contribute one each.
	Attempts int
	// Failovers is how many replicas were tried beyond the first, summed
	// over partitions (search) or shipment endpoints (join).
	Failovers int
	// AdmissionWait is time spent queued before the query was admitted.
	AdmissionWait time.Duration
	// Elapsed is the whole query, admission included.
	Elapsed time.Duration
}

// coordMetrics is the coordinator's pre-resolved registry handles; nil
// disables recording and the per-query clock reads feeding it.
type coordMetrics struct {
	reg *obs.Registry
	// ops holds each query kind's count, latency and whole-query funnel.
	ops           [len(ops)]opMetrics
	admissionWait *obs.Histogram
	retries       *obs.Counter
	failovers     *obs.Counter
	skips         *obs.Counter
	// Snapshot economy: replica placements satisfied without shipping,
	// and raw payloads released because durable snapshots cover them.
	dispatchReused  *obs.Counter
	payloadsDropped *obs.Counter
	// Streaming ingest: acked upserts, acked deletes, and writes refused
	// by worker backpressure (ErrOverloaded surfaced to the caller).
	ingests        *obs.Counter
	deletes        *obs.Counter
	ingestRejected *obs.Counter
	// Online re-partitioning: completed split/merge cutovers, their
	// wall-clock cost, and the post-cutover occupancy skew.
	rebalances    *obs.Counter
	rebalanceMS   *obs.Histogram
	occupancySkew *obs.FloatGauge
	// Autopilot: planner passes that exhausted the step budget without
	// converging, autopilot ticks, and the automatic actions it took
	// (rebalance cutovers, replica promotions).
	rebalanceNoConverge *obs.Counter
	autopilotTicks      *obs.Counter
	autopilotCutovers   *obs.Counter
	autopilotPromotions *obs.Counter
}

func newCoordMetrics(r *obs.Registry) *coordMetrics {
	if r == nil {
		return nil
	}
	return &coordMetrics{
		reg: r,
		ops: [...]opMetrics{
			opSearch: {r.Counter("coord_searches_total"), r.Histogram("coord_search_latency_us"), obs.NewFunnelCounters(r, "coord_search_")},
			opKNN:    {r.Counter("coord_knn_total"), r.Histogram("coord_knn_latency_us"), obs.NewFunnelCounters(r, "coord_knn_")},
			opJoin:   {r.Counter("coord_joins_total"), r.Histogram("coord_join_latency_us"), obs.NewFunnelCounters(r, "coord_join_")},
		},
		admissionWait:       r.Histogram("coord_admission_wait_us"),
		retries:             r.Counter("coord_rpc_retries_total"),
		failovers:           r.Counter("coord_replica_failovers_total"),
		skips:               r.Counter("coord_partition_skips_total"),
		dispatchReused:      r.Counter("coord_dispatch_reused_total"),
		payloadsDropped:     r.Counter("coord_payloads_dropped_total"),
		ingests:             r.Counter("coord_ingests_total"),
		deletes:             r.Counter("coord_deletes_total"),
		ingestRejected:      r.Counter("coord_ingest_rejected_total"),
		rebalances:          r.Counter("coord_rebalance_total"),
		rebalanceMS:         r.Histogram("coord_rebalance_ms"),
		occupancySkew:       r.FloatGauge("coord_occupancy_skew"),
		rebalanceNoConverge: r.Counter("coord_rebalance_noconverge_total"),
		autopilotTicks:      r.Counter("coord_autopilot_ticks_total"),
		autopilotCutovers:   r.Counter("coord_autopilot_cutovers_total"),
		autopilotPromotions: r.Counter("coord_autopilot_promotions_total"),
	}
}

// opMetrics is one query kind's handles.
type opMetrics struct {
	count   *obs.Counter
	latency *obs.Histogram
	funnel  *obs.FunnelCounters
}

// rebalanceObserve records one completed cutover and the dataset's
// post-cutover occupancy skew.
func (m *coordMetrics) rebalanceObserve(d time.Duration, skew float64) {
	if m == nil {
		return
	}
	m.rebalances.Inc()
	m.rebalanceMS.Observe(d.Milliseconds())
	m.occupancySkew.Set(skew)
}

// publishPartitionCosts exports the per-partition read-cost EWMAs as
// coord_partition_cost_us_p<pid> and coord_partition_cost_verified_p<pid>
// float gauges (the registry has flat names, so the pid lands in the
// name like the per-class skip counters). Called from the autopilot tick,
// not the query hot path, so the name-mangled lookups stay off queries.
func (m *coordMetrics) publishPartitionCosts(costs []core.PartitionCost) {
	if m == nil {
		return
	}
	for _, pc := range costs {
		id := strconv.Itoa(pc.Pid)
		m.reg.FloatGauge("coord_partition_cost_us_p" + id).Set(pc.VerifyUS)
		m.reg.FloatGauge("coord_partition_cost_verified_p" + id).Set(pc.Verified)
	}
}

// recordSkip counts one skipped partition, overall and by error class.
// Skips are rare; the per-class registry lookup cost is irrelevant.
func (m *coordMetrics) recordSkip(class string) {
	if m == nil {
		return
	}
	m.skips.Inc()
	if class != "" {
		m.reg.Counter("coord_partition_skips_" + class + "_total").Inc()
	}
}

// recordRetries turns per-query attempt accounting into the retry and
// failover counters: tried is replicas contacted, attempts the total RPC
// attempts across them.
func (m *coordMetrics) recordRetries(attempts, tried int) {
	if m == nil {
		return
	}
	if extra := attempts - tried; extra > 0 {
		m.retries.Add(int64(extra))
	}
	if fo := tried - 1; fo > 0 {
		m.failovers.Add(int64(fo))
	}
}
