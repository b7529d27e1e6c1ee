package core

import (
	"fmt"
	"time"

	"dita/internal/obs"
)

// queryOp is an engine query kind.
type queryOp int

const (
	opSearch queryOp = iota
	opKNN
	opJoin
	opKNNJoin
)

// ops names each kind in errors and in the metrics: its query counter,
// engine_<label>_latency_us and the engine_<label>_ funnel counters. The
// kNN join records no metrics.
var ops = [...]struct{ label, counter string }{
	opSearch:  {"search", "engine_searches_total"},
	opKNN:     {"knn", "engine_knn_total"},
	opJoin:    {"join", "engine_joins_total"},
	opKNNJoin: {label: "knn join"},
}

// SkippedPartition identifies one partition a partial query could not
// complete, with the error (typically a recovered panic) that stopped it.
// Elapsed is how long the partition's task ran before failing (zero when
// the query ran untimed, i.e. no trace and no metrics registry), and
// Class is the coarse obs error class of Err.
type SkippedPartition struct {
	Partition int
	Err       string
	Elapsed   time.Duration
	Class     string
}

// SkipReport lists exactly the partitions a query skipped because their
// tasks failed (panicked). Empty means the result is complete.
type SkipReport struct {
	Skipped []SkippedPartition
}

// Partial reports whether anything was skipped.
func (r *SkipReport) Partial() bool { return r != nil && len(r.Skipped) > 0 }

// Err is the report as a strict caller's error: nil when nothing was
// skipped (or r is nil), otherwise one error naming op, the number of
// partitions lost and the first of them.
func (r *SkipReport) Err(op string) error {
	if !r.Partial() {
		return nil
	}
	s := r.Skipped[0]
	return fmt.Errorf("core: %s: %d partition(s) failed (first: partition %d: %s)",
		op, len(r.Skipped), s.Partition, s.Err)
}

// queryRun is one engine query between begin and finish.
type queryRun struct {
	e  *Engine
	op queryOp
	tr *obs.Trace // the stats' trace, or nil
	// timed: the trace or the metrics registry reads the query's clock.
	// Untimed queries read no clock at all.
	timed  bool
	start  time.Time
	funnel obs.Funnel
	report SkipReport
}

// begin starts a query the way the paper's driver runs every query (§5.2,
// §6) — global prune, one guarded task per surviving partition, merge —
// and finish records it. A body returns a nil report exactly when it
// returns an error: cancellation is never partial.
func (e *Engine) begin(op queryOp, tr *obs.Trace) queryRun {
	run := queryRun{e: e, op: op, tr: tr, timed: tr != nil || e.met != nil}
	if run.timed {
		run.start = time.Now()
	}
	return run
}

// finish counts a planned query with its latency and funnel.
func (run *queryRun) finish() {
	if m := run.e.met; m != nil {
		om := &m.ops[run.op]
		om.count.Inc()
		om.latency.Observe(time.Since(run.start).Microseconds())
		om.funnel.Record(run.funnel)
	}
}

// skip records a partition the query lost to err after elapsed.
func (run *queryRun) skip(pid int, err error, elapsed time.Duration) {
	class := obs.Classify(err)
	run.report.Skipped = append(run.report.Skipped, SkippedPartition{
		Partition: pid, Err: err.Error(), Elapsed: elapsed, Class: class})
	run.e.met.recordSkip(class)
}

// recoverTo is the one panic guard of every partition task, deferred
// directly: a poisoned partition (bad data, a bug in a measure) becomes
// that task's error, not the query's crash, let alone the process's.
func recoverTo(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v", r)
	}
}

// checkPair is the precondition of a query over two engines: one measure
// on both sides, since a join prunes, selects and verifies with either
// side's. A kNN join also needs one cluster — it schedules the left
// partitions' probes on their owning workers — where a threshold join
// runs across two.
func (e *Engine) checkPair(op queryOp, other *Engine) error {
	if op == opKNNJoin && e.cl != other.cl {
		return fmt.Errorf("core: %s: engines do not share a cluster", ops[op].label)
	}
	a, b := e.opts.Measure, other.opts.Measure
	if a.Name() != b.Name() || a.Epsilon() != b.Epsilon() {
		return fmt.Errorf("core: %s: measure mismatch: %s(ε=%g) vs %s(ε=%g)",
			ops[op].label, a.Name(), a.Epsilon(), b.Name(), b.Epsilon())
	}
	return nil
}

// trace is the stats' trace; nil stats trace nothing.
func (s *SearchStats) trace() *obs.Trace {
	if s == nil {
		return nil
	}
	return s.Trace
}

func (s *JoinStats) trace() *obs.Trace {
	if s == nil {
		return nil
	}
	return s.Trace
}

// fill records a search or kNN query's funnel and answer count.
func (s *SearchStats) fill(f obs.Funnel, results int) {
	if s != nil {
		s.Funnel, s.RelevantPartitions, s.Results = f, int(f.Relevant), results
		s.Candidates, s.Verified = int(f.TrieCands), int(f.Verified)
	}
}

// must is the pinned shims' legacy contract: an error panics.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// outcome is a partial body's results, for a pinned shim to make strict.
type outcome[T any] struct {
	v   T
	rep *SkipReport
	err error
}

func partial[T any](v T, rep *SkipReport, err error) outcome[T] { return outcome[T]{v, rep, err} }

// must panics on the body's error or, failing that, on any skip.
func (o outcome[T]) must(op queryOp) T {
	if o.err == nil {
		o.err = o.rep.Err(ops[op].label)
	}
	return must(o.v, o.err)
}
