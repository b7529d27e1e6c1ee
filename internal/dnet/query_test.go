package dnet

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dita/internal/gen"
	"dita/internal/measure"
	"dita/internal/obs"
	"dita/internal/oracle"
	"dita/internal/traj"
)

// queryOps runs each coordinator query kind over dataset "T" — a threshold
// search and a self-join at a τ every partition and pair is relevant to, a
// kNN whose k covers every member — and returns how many results it got.
var queryOps = []struct {
	label string
	run   func(c *Coordinator, ctx context.Context, q *traj.T, qs *QueryStats) (int, *PartialReport, error)
}{
	{"search", func(c *Coordinator, ctx context.Context, q *traj.T, qs *QueryStats) (int, *PartialReport, error) {
		hits, rep, err := c.SearchTraced(ctx, "T", q, 100, qs)
		return len(hits), rep, err
	}},
	{"knn", func(c *Coordinator, ctx context.Context, q *traj.T, qs *QueryStats) (int, *PartialReport, error) {
		hits, rep, err := c.SearchKNNTraced(ctx, "T", q, 1<<20, qs)
		return len(hits), rep, err
	}},
	{"join", func(c *Coordinator, ctx context.Context, _ *traj.T, qs *QueryStats) (int, *PartialReport, error) {
		pairs, rep, err := c.JoinTraced(ctx, "T", "T", 100, qs)
		return len(pairs), rep, err
	}},
}

// TestNetQueryLifecycle is the lifecycle every coordinator query shares
// (begin, probe, finish), held once per query kind: qs may be nil; a
// saturated admission gate rejects with ErrOverloaded and an admit span
// classed overloaded; a cancelled context fails the query with ctx.Err()
// even under AllowPartial, never a partial report; and a lost partition is
// an error naming the op in strict mode, a report under AllowPartial.
func TestNetQueryLifecycle(t *testing.T) {
	cfg := testConfig()
	cfg.Replicas = 1
	cfg.Admission.MaxConcurrent = 1
	workers, _, c := chaosCluster(t, 3, cfg)
	d := gen.Generate(gen.BeijingLike(80, 143))
	if err := c.Dispatch("T", d); err != nil {
		t.Fatal(err)
	}
	q := d.Trajs[0]
	want := map[string]int{"search": d.Len(), "knn": d.Len(), "join": d.Len() * d.Len()}
	for _, op := range queryOps {
		for _, qs := range []*QueryStats{nil, {Trace: obs.NewTrace(op.label)}} {
			n, rep, err := op.run(c, context.Background(), q, qs)
			if err != nil || rep.Partial() || n != want[op.label] {
				t.Fatalf("%s (stats %v): %d results, partial=%v, err=%v; want %d", op.label, qs != nil, n, rep.Partial(), err, want[op.label])
			}
		}

		release, err := c.adm.Acquire(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		qs := &QueryStats{Trace: obs.NewTrace(op.label)}
		_, _, err = op.run(c, context.Background(), q, qs)
		release()
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("%s past a full gate: err = %v, want ErrOverloaded", op.label, err)
		}
		admitted := false
		for _, s := range qs.Trace.Spans() {
			admitted = admitted || (s.Name == "admit" && s.Class == obs.ClassOverloaded)
		}
		if !admitted {
			t.Fatalf("%s past a full gate: no admit span classed %s in %+v", op.label, obs.ClassOverloaded, qs.Trace.Spans())
		}

		c.cfg.AllowPartial = true
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		n, _, err := op.run(c, ctx, q, nil)
		c.cfg.AllowPartial = false
		if err != ctx.Err() || n != 0 {
			t.Fatalf("%s under a cancelled context: %d results, err = %v; want ctx.Err() = %v", op.label, n, err, ctx.Err())
		}
	}

	workers[1].Close()
	for _, op := range queryOps {
		_, _, err := op.run(c, context.Background(), q, nil)
		if err == nil || !strings.HasPrefix(err.Error(), "dnet: "+op.label+" ") {
			t.Fatalf("strict %s over a lost partition: err = %v, want one naming the %s", op.label, err, op.label)
		}
		c.cfg.AllowPartial = true
		n, rep, err := op.run(c, context.Background(), q, nil)
		c.cfg.AllowPartial = false
		if err != nil || !rep.Partial() || n >= want[op.label] {
			t.Fatalf("partial %s over a lost partition: %d results, partial=%v, err=%v", op.label, n, rep.Partial(), err)
		}
	}
}

// A QueryStats passed to two identical queries reports the second one's
// totals, not their running sum.
func TestNetQueryStatsReuse(t *testing.T) {
	c, stop := startCluster(t, 3, testConfig())
	defer stop()
	d := gen.Generate(gen.BeijingLike(80, 145))
	if err := c.Dispatch("T", d); err != nil {
		t.Fatal(err)
	}
	for _, op := range queryOps {
		qs := &QueryStats{}
		var attempts [2]int
		for i := range attempts {
			if _, _, err := op.run(c, context.Background(), d.Trajs[0], qs); err != nil {
				t.Fatal(err)
			}
			attempts[i] = qs.Attempts
		}
		if attempts[0] == 0 || attempts[1] != attempts[0] {
			t.Fatalf("%s: Attempts %d then %d over one QueryStats, want the same nonzero count twice", op.label, attempts[0], attempts[1])
		}
	}
}

// TestNetJoinCutoverReplan: a partition of one side is split away after the
// join pinned its plan and before any shipment. Every edge lost to it has
// a retired end — staleness, not ill health — so the join re-plans against
// the new layout and returns brute force's pairs, with nothing skipped, in
// strict mode. Run as a two-dataset join and as a self-join, whose lost
// mirror edges name both of their partitions.
func TestNetJoinCutoverReplan(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(300, 147))
	_, _, _, c := ingestCluster(t, 3, chaosConfig(), 1<<30, 0)
	for _, name := range []string{"T", "Q"} {
		if err := c.Dispatch(name, d); err != nil {
			t.Fatal(err)
		}
	}
	const tau = 0.02
	dd, err := c.dataset("T")
	if err != nil {
		t.Fatal(err)
	}
	for _, sides := range [][2]string{{"T", "Q"}, {"T", "T"}} {
		// The largest live partition of T: it joins at least its twin.
		victim := -1
		v := dd.view()
		for pid, n := range v.Live {
			if !v.Bounds[pid].Retired && (victim < 0 || n > v.Live[victim]) {
				victim = pid
			}
		}
		qs := &QueryStats{Trace: obs.NewTrace("join")}
		var splitErr error
		ctx := &cutoverCtx{Context: context.Background(), tr: qs.Trace, span: "global-prune", hook: func() {
			_, splitErr = c.SplitPartition("T", victim, 2)
		}}
		label := sides[0] + "⋈" + sides[1]
		pairs, rep, err := c.JoinTraced(ctx, sides[0], sides[1], tau, qs)
		if splitErr != nil {
			t.Fatalf("%s: split of partition %d: %v", label, victim, splitErr)
		}
		if err != nil {
			t.Fatalf("%s across a cutover of partition %d: %v", label, victim, err)
		}
		if rep.Partial() {
			t.Fatalf("%s: report %+v, want nothing skipped after the re-plan", label, rep.Skipped)
		}
		want := oracle.Join(d.Trajs, d.Trajs, measure.DTW{}, tau)
		if sides[0] == sides[1] {
			want = oracle.SelfJoin(d.Trajs, measure.DTW{}, tau)
		}
		if err := oracle.DiffJoin(pairsOf(pairs), want); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		plans := 0
		for _, s := range qs.Trace.Spans() {
			if s.Name == "global-prune" {
				plans++
			}
		}
		if plans != 2 {
			t.Fatalf("%s: %d global-prune spans, want 2 (the stale plan and the re-plan)", label, plans)
		}
	}
}
