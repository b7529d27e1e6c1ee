package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"dita/internal/geom"
	"dita/internal/measure"
)

// panicMeasure is DTW that blows up when verifying a chosen set of data
// trajectories (matched by the identity of their point slices) — the
// "poisoned partition" fault: bad data or a measure bug that explodes
// only for some inputs.
type panicMeasure struct {
	measure.DTW
	poisoned map[*geom.Point]bool
}

func (m panicMeasure) DistanceThreshold(t, q []geom.Point, tau float64) (float64, bool) {
	if len(t) > 0 && m.poisoned[&t[0]] {
		panic("injected verification fault")
	}
	return m.DTW.DistanceThreshold(t, q, tau)
}

// poisonPartition swaps the engine's measure for one that panics while
// verifying any trajectory of partition pidx, returning an undo func.
func poisonPartition(e *Engine, pidx int) func() {
	old := e.opts.Measure
	poisoned := map[*geom.Point]bool{}
	for _, tr := range e.Partitions()[pidx].Trajs {
		if len(tr.Points) > 0 {
			poisoned[&tr.Points[0]] = true
		}
	}
	e.opts.Measure = panicMeasure{poisoned: poisoned}
	return func() { e.opts.Measure = old }
}

// A panic inside one partition's verification must not crash the query:
// SearchPartialContext reports the partition skipped and returns the
// survivors' hits; after the fault clears, a retry is exact.
func TestSearchPanicYieldsPartialThenExactRetry(t *testing.T) {
	d := smallDataset(300, 50)
	e, err := NewEngine(d, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	// Query with a trajectory from the poisoned partition so its
	// self-match is guaranteed to reach the exploding verification.
	target := 0
	q := e.Partitions()[target].Trajs[0]
	tau := 0.05
	undo := poisonPartition(e, target)

	hits, rep, err := e.SearchPartialContext(context.Background(), q, tau, nil)
	if err != nil {
		t.Fatalf("partial search errored: %v", err)
	}
	if !rep.Partial() {
		t.Fatal("poisoned partition not reported as skipped")
	}
	for _, s := range rep.Skipped {
		if !strings.Contains(s.Err, "injected verification fault") {
			t.Errorf("skip not attributed to the panic: %q", s.Err)
		}
	}
	for _, h := range hits {
		if h.Traj.ID == q.ID {
			t.Error("hit from the poisoned partition leaked into results")
		}
	}
	// A strict caller turns the same report into an error, not a panic.
	if err := rep.Err("search"); err == nil || !strings.Contains(err.Error(), "search") {
		t.Fatalf("SkipReport.Err = %v for a poisoned partition", err)
	}

	undo()
	got, rep, err := e.SearchPartialContext(context.Background(), q, tau, nil)
	if err != nil || rep.Partial() {
		t.Fatalf("retry after fault cleared: err=%v partial=%v", err, rep.Partial())
	}
	want := bruteSearch(d, measure.DTW{}, q, tau)
	if len(got) != len(want) {
		t.Fatalf("retry: %d hits, want %d", len(got), len(want))
	}
	for _, h := range got {
		if !want[h.Traj.ID] {
			t.Fatalf("retry: spurious hit %d", h.Traj.ID)
		}
	}
}

// An already-cancelled context aborts Search before any work, and never
// masquerades as a partial result.
func TestSearchContextPreCancelled(t *testing.T) {
	d := smallDataset(100, 51)
	e, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hits, rep, err := e.SearchPartialContext(ctx, d.Trajs[0], 0.05, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if hits != nil || rep.Partial() {
		t.Fatal("cancelled query produced results or a skip report")
	}
}

// A cancelled join aborts promptly — well under a second — even though
// the full join over the dataset takes much longer.
func TestJoinContextCancelPrompt(t *testing.T) {
	d := smallDataset(2000, 52)
	e1, err := NewEngine(d, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(d, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err = e1.JoinPartialContext(ctx, e2, 0.05, DefaultJoinOptions(), nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancelled join took %v, want < 1s", elapsed)
	}
}

// A deadline bounds Search the same way cancellation does.
func TestSearchContextDeadline(t *testing.T) {
	d := smallDataset(2000, 53)
	e, err := NewEngine(d, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done() // let it expire so the abort point is deterministic
	start := time.Now()
	_, _, err = e.SearchPartialContext(ctx, d.Trajs[0], 0.1, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("expired search took %v", elapsed)
	}
}

// Join panic isolation: poisoning one side's verification yields a
// partial join with a skip report, not a crash, which a strict caller
// turns into an error.
func TestJoinPanicYieldsPartial(t *testing.T) {
	d := smallDataset(200, 54)
	e1, err := NewEngine(d, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(d, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	// Poison a destination partition: stage-2 local joins verifying
	// against its trajectories explode mid-shuffle. (Edges oriented the
	// other way verify on e1 and still succeed — the skip report is what
	// records the hole.)
	undo := poisonPartition(e2, 0)
	_, rep, err := e1.JoinPartialContext(context.Background(), e2, 0.05, DefaultJoinOptions(), nil)
	if err != nil {
		t.Fatalf("partial join errored: %v", err)
	}
	if !rep.Partial() {
		t.Fatal("poisoned destination partition not reported")
	}
	found := false
	for _, s := range rep.Skipped {
		if strings.Contains(s.Err, "injected verification fault") {
			found = true
		}
	}
	if !found {
		t.Fatalf("skip report not attributed to the panic: %+v", rep.Skipped)
	}
	if err := rep.Err("join"); err == nil {
		t.Fatal("SkipReport.Err returned nil for a poisoned partition")
	}

	// Retry after the fault clears is exact.
	undo()
	pairs, rep, err := e1.JoinPartialContext(context.Background(), e2, 0.05, DefaultJoinOptions(), nil)
	if err != nil || rep.Partial() {
		t.Fatalf("retry after fault cleared: err=%v partial=%v", err, rep.Partial())
	}
	checkJoin(t, pairs, bruteJoin(d, d, measure.DTW{}, 0.05), "retry after fault")
}

// TestEngineQueryLifecycle holds the engine's four query bodies to one
// contract: nil stats work; a pre-cancelled context returns ctx.Err() and
// never a report; a poisoned partition is a SkipReport from a partial body,
// which SkipReport.Err turns into an error naming the op and a pinned shim
// into a panic, and an error from kNN and the kNN join, which have no
// partial form.
func TestEngineQueryLifecycle(t *testing.T) {
	d := smallDataset(300, 55)
	e, err := NewEngine(d, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	const victim = 0
	q := e.Partitions()[victim].Trajs[0]
	rows := []struct {
		op      string
		partial bool
		// body runs the query over e (and e ⋈ e): its answer count, report
		// (nil unless partial) and error.
		body func(ctx context.Context) (int, *SkipReport, error)
		// shim runs the pinned form; nil when there is none.
		shim func() int
	}{
		{"search", true, func(ctx context.Context) (int, *SkipReport, error) {
			out, rep, err := e.SearchPartialContext(ctx, q, 0.05, nil)
			return len(out), rep, err
		}, func() int { return len(e.Search(q, 0.05, nil)) }},
		{"knn", false, func(ctx context.Context) (int, *SkipReport, error) {
			out, err := e.SearchKNNContext(ctx, q, 3, nil)
			return len(out), nil, err
		}, func() int { return len(e.SearchKNN(q, 3)) }},
		{"join", true, func(ctx context.Context) (int, *SkipReport, error) {
			out, rep, err := e.JoinPartialContext(ctx, e, 0.02, DefaultJoinOptions(), nil)
			return len(out), rep, err
		}, func() int { return len(e.Join(e, 0.02, DefaultJoinOptions(), nil)) }},
		{"knn join", false, func(ctx context.Context) (int, *SkipReport, error) {
			out, err := e.KNNJoinContext(ctx, e, 3, nil)
			return len(out), nil, err
		}, nil},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	shimPanics := func(shim func() int) (v any) {
		defer func() { v = recover() }()
		shim()
		return nil
	}
	for _, r := range rows {
		t.Run(r.op, func(t *testing.T) {
			n, rep, err := r.body(context.Background())
			if err != nil || rep.Partial() || n == 0 {
				t.Fatalf("nil stats: %d answers, partial=%v, err %v", n, rep.Partial(), err)
			}
			if r.shim != nil && r.shim() != n {
				t.Fatal("the shim's answer differs from the body's")
			}
			if n, rep, err := r.body(cancelled); !errors.Is(err, context.Canceled) || rep != nil || n != 0 {
				t.Fatalf("pre-cancelled: %d answers, report %v, err %v", n, rep, err)
			}

			defer poisonPartition(e, victim)()
			_, rep, err = r.body(context.Background())
			if r.partial {
				named := rep.Partial() && slices.ContainsFunc(rep.Skipped, func(s SkippedPartition) bool { return s.Partition == victim })
				if err != nil || !named {
					t.Fatalf("poisoned: report %+v, err %v", rep, err)
				}
				if err := rep.Err(r.op); err == nil || !strings.Contains(err.Error(), "core: "+r.op+":") {
					t.Fatalf("SkipReport.Err(%q) = %v", r.op, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), "injected verification fault") {
				t.Fatalf("poisoned: err %v, want the partition's panic", err)
			}
			if r.shim != nil {
				if v := shimPanics(r.shim); v == nil {
					t.Fatal("the shim did not panic over a poisoned partition")
				}
			}
		})
	}
}
