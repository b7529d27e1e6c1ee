package core

import (
	"time"

	"dita/internal/obs"
	"dita/internal/wal"
)

// engineMetrics holds the engine's registry handles, resolved once at
// build time. A nil *engineMetrics disables all recording (and, more
// importantly, the clock reads that feed the latency histograms).
type engineMetrics struct {
	reg           *obs.Registry
	ops           [opKNNJoin]opMetrics // search, kNN, join
	skips         *obs.Counter
	inserts       *obs.Counter
	deletes       *obs.Counter
	merges        *obs.Counter
	sealErrs      *obs.Counter
	deltaBytes    *obs.Gauge
	replayRecords *obs.Counter
	replayLatency *obs.Histogram
	rebalances    *obs.Counter
	rebalanceMS   *obs.Histogram
	occupancySkew *obs.FloatGauge
}

// opMetrics is one query kind's count, latency and cumulative funnel.
type opMetrics struct {
	count   *obs.Counter
	latency *obs.Histogram
	funnel  *obs.FunnelCounters
}

func newEngineMetrics(r *obs.Registry) *engineMetrics {
	if r == nil {
		return nil
	}
	m := &engineMetrics{
		reg:           r,
		skips:         r.Counter("engine_partition_skips_total"),
		inserts:       r.Counter("engine_inserts_total"),
		deletes:       r.Counter("engine_deletes_total"),
		merges:        r.Counter("engine_merges_total"),
		sealErrs:      r.Counter("engine_seal_errors_total"),
		deltaBytes:    r.Gauge("engine_delta_bytes"),
		replayRecords: r.Counter("engine_wal_replayed_records_total"),
		replayLatency: r.Histogram("engine_wal_replay_us"),
		rebalances:    r.Counter("engine_rebalance_total"),
		rebalanceMS:   r.Histogram("engine_rebalance_ms"),
		occupancySkew: r.FloatGauge("engine_occupancy_skew"),
	}
	for op := range m.ops {
		o := ops[op]
		m.ops[op] = opMetrics{r.Counter(o.counter),
			r.Histogram("engine_" + o.label + "_latency_us"), obs.NewFunnelCounters(r, "engine_"+o.label+"_")}
	}
	return m
}

// rebalanceObserve records one completed split/merge cutover and the
// post-cutover occupancy skew.
func (m *engineMetrics) rebalanceObserve(d time.Duration, skew float64) {
	if m == nil {
		return
	}
	m.rebalances.Inc()
	m.rebalanceMS.Observe(d.Milliseconds())
	m.occupancySkew.Set(skew)
}

// setDeltaBytes publishes the engine's total unmerged overlay size.
func (m *engineMetrics) setDeltaBytes(n int64) {
	if m != nil {
		m.deltaBytes.Set(n)
	}
}

// mutated counts one applied insert or delete and publishes the overlay
// size after it.
func (m *engineMetrics) mutated(op byte, deltaBytes int64) {
	if op == wal.OpDelete {
		m.deletes.Inc()
	} else {
		m.inserts.Inc()
	}
	m.setDeltaBytes(deltaBytes)
}

// sealFailed counts a merge whose base could not be sealed.
func (m *engineMetrics) sealFailed() {
	if m != nil {
		m.sealErrs.Inc()
	}
}

// replayObserve records one WAL recovery pass.
func (m *engineMetrics) replayObserve(sum *ReplaySummary) {
	if m == nil {
		return
	}
	m.replayRecords.Add(int64(sum.Records))
	m.replayLatency.Observe(sum.Duration.Microseconds())
}

// recordSkip counts a skipped partition, overall and by error class. The
// per-class counter goes through the registry map — skips are rare, the
// lookup cost is irrelevant.
func (m *engineMetrics) recordSkip(class string) {
	if m == nil {
		return
	}
	m.skips.Inc()
	if class != "" {
		m.reg.Counter("engine_partition_skips_" + class + "_total").Inc()
	}
}

// Funnel converts the verifier's cascade counters into the verification
// stages of a pruning funnel. considered is the candidate population the
// trie filtered (partition size for search, |shipped|·|dst| pairs for a
// join edge); trieCands is the trie's output feeding this verifier.
func (v *Verifier) Funnel(considered, trieCands int) obs.Funnel {
	afterLen := int64(trieCands) - v.LengthPruned.Load()
	return obs.Funnel{
		Considered:    int64(considered),
		TrieCands:     int64(trieCands),
		AfterLength:   afterLen,
		AfterCoverage: afterLen - v.CoveragePruned.Load(),
		Verified:      v.Verified.Load(),
		Matched:       v.Accepted.Load(),
	}
}
