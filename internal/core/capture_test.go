package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/oracle"
	"dita/internal/traj"
)

// stallGate parks every DistanceThreshold of a stallMeasure while armed:
// the first parked call closes entered, and all of them wait for release.
type stallGate struct {
	armed         atomic.Bool
	enter, finish sync.Once
	entered       chan struct{}
	released      chan struct{}
}

func newStallGate() *stallGate {
	return &stallGate{entered: make(chan struct{}), released: make(chan struct{})}
}

func (g *stallGate) release() { g.finish.Do(func() { close(g.released) }) }

// stallMeasure is DTW whose threshold kernel blocks on its gate once armed:
// a query that reaches verification stalls there, mid-query.
type stallMeasure struct {
	measure.DTW
	g *stallGate
}

func (m stallMeasure) DistanceThreshold(t, q []geom.Point, tau float64) (float64, bool) {
	if m.g.armed.Load() {
		m.g.enter.Do(func() { close(m.g.entered) })
		<-m.g.released
	}
	return m.DTW.DistanceThreshold(t, q, tau)
}

// within runs f and fails the test unless it returns, without error, in 5 s.
func within(t *testing.T, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return within 5 s while a query was stalled", what)
	}
}

// locate is the partition showing id now.
func locate(e *Engine, id int) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	pid, ok := e.lay.Locate(id)
	if !ok {
		return -1
	}
	return pid
}

// A query holds the engine lock only while it captures its views: with a
// search, a kNN, a join and a kNN join each stalled inside verification, an
// insert, a delete, a fold and a split of the same engine all return, and
// the stalled query still answers over the members visible when it began.
func TestWritesDoNotWaitForQueries(t *testing.T) {
	const tau, k = 0.05, 5
	dtw := measure.DTW{}
	kinds := []struct {
		name string
		// run runs the query and returns what is wrong with its answer over
		// vis, the members visible when it began.
		run func(e *Engine, q *traj.T, vis []*traj.T) error
	}{
		{"search", func(e *Engine, q *traj.T, vis []*traj.T) error {
			got, rep, err := e.SearchPartialContext(context.Background(), q, tau, nil)
			if err == nil {
				err = rep.Err("search")
			}
			return errors.Join(err, oracle.DiffSearch(hitsOf(got), oracle.Search(vis, dtw, q, tau)))
		}},
		{"knn", func(e *Engine, q *traj.T, vis []*traj.T) error {
			got, err := e.SearchKNNContext(context.Background(), q, k, nil)
			return errors.Join(err, oracle.DiffKNN(hitsOf(got), oracle.KNN(vis, dtw, q, k)))
		}},
		{"join", func(e *Engine, _ *traj.T, vis []*traj.T) error {
			got, rep, err := e.JoinPartialContext(context.Background(), e, tau, DefaultJoinOptions(), nil)
			if err == nil {
				err = rep.Err("join")
			}
			return errors.Join(err, oracle.DiffJoin(pairsOf(got), oracle.SelfJoin(vis, dtw, tau)))
		}},
		{"knn join", func(e *Engine, _ *traj.T, vis []*traj.T) error {
			got, err := e.KNNJoinContext(context.Background(), e, k, nil)
			if err != nil {
				return err
			}
			if len(got) != len(vis) {
				return fmt.Errorf("answers for %d members, want %d", len(got), len(vis))
			}
			for _, t := range vis {
				if err := oracle.DiffKNN(hitsOf(got[t.ID]), oracle.KNN(vis, dtw, t, k)); err != nil {
					return fmt.Errorf("member %d: %w", t.ID, err)
				}
			}
			return nil
		}},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			d := smallDataset(300, 61)
			g := newStallGate()
			t.Cleanup(g.release)
			opts := smallOpts(2)
			opts.Measure = stallMeasure{g: g}
			e, err := NewEngine(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.EnableIngest(IngestConfig{}); err != nil {
				t.Fatal(err)
			}
			vis := append([]*traj.T(nil), d.Trajs...)
			q := d.Trajs[17]
			home := locate(e, q.ID)

			g.armed.Store(true)
			answer := make(chan error, 1)
			go func() { answer <- kind.run(e, q, vis) }()
			select {
			case <-g.entered:
			case <-time.After(30 * time.Second):
				t.Fatal("the query never reached verification")
			}

			// An insert the query would match, a delete of a member it does
			// match, a fold of the insert's partition and a split of the
			// deleted member's: none may wait for the stalled query, and
			// none may show in its answer.
			clone := q.Clone()
			clone.ID = 1 << 20
			within(t, "Insert", func() error { return e.Insert(clone) })
			within(t, "Delete", func() error {
				if ok, err := e.Delete(q.ID); err != nil || !ok {
					return errors.Join(err, errors.New("the member was not deleted"))
				}
				return nil
			})
			within(t, "MergePartition", func() error {
				_, err := e.MergePartition(locate(e, clone.ID))
				return err
			})
			within(t, "SplitPartition", func() error {
				_, err := e.SplitPartition(home, 2)
				return err
			})

			g.release()
			select {
			case err := <-answer:
				if err != nil {
					t.Fatalf("answer after release, against the members visible when the query began: %v", err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("the query did not finish after release")
			}
		})
	}
}

// Queries in a region whose answer is fixed run beside inserts and deletes
// far away, folds, and splits and merges that cut the partitions under
// them: every search, kNN and self-join answer equals the fixed one. A query
// that read some partitions before a cutover and some after would lose the
// members that moved, or see them twice.
func TestCaptureOneInstantUnderChurn(t *testing.T) {
	const tau, joinTau, k, far = 0.05, 0.02, 5, 1 << 20
	d := smallDataset(200, 71)
	base := append([]*traj.T(nil), d.Trajs...)
	m := measure.DTW{}
	opts := smallOpts(2)
	opts.VerifyParallelism = 1
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnableIngest(IngestConfig{MergeBytes: 8 << 10}); err != nil {
		t.Fatal(err)
	}
	qs := []*traj.T{base[3], base[50], base[101], base[160]}
	wantSearch := make([][]oracle.Hit, len(qs))
	wantKNN := make([][]oracle.Hit, len(qs))
	for i, q := range qs {
		wantSearch[i], wantKNN[i] = oracle.Search(base, m, q, tau), oracle.KNN(base, m, q, k)
	}
	wantJoin := oracle.SelfJoin(base, m, joinTau)

	// The writers keep on until the readers have run minQueries rounds
	// beside them, up to a cap that stops them should the readers fail.
	const minQueries = 40
	var queries atomic.Int64
	churning := func(i, plan, limit int) bool { return i < plan || (queries.Load() < minQueries && i < limit) }
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	writers.Add(2)
	go func() { // far inserts, deletes of them, and folds
		defer writers.Done()
		for i := 0; churning(i, 150, 3000); i++ {
			c := base[i%len(base)].Clone()
			c.ID = far + i
			for j := range c.Points {
				c.Points[j].X += 10
				c.Points[j].Y += 10
			}
			if err := e.Insert(c); err != nil {
				t.Errorf("insert %d: %v", c.ID, err)
				return
			}
			if i%3 == 2 {
				if _, err := e.Delete(far + i - 2); err != nil {
					t.Errorf("delete %d: %v", far+i-2, err)
					return
				}
			}
			if i%10 == 9 {
				if _, err := e.MergePartition(locate(e, c.ID)); err != nil {
					t.Errorf("merge: %v", err)
					return
				}
			}
		}
	}()
	go func() { // splits of the queries' partitions, merges of the smallest two
		defer writers.Done()
		for c := 0; churning(c, 8, 200); c++ {
			if _, err := e.SplitPartition(locate(e, qs[c%len(qs)].ID), 2); err != nil && !errors.Is(err, ErrRebalanceBusy) {
				t.Errorf("split: %v", err)
				return
			}
			if _, err := e.MergePartitions(smallestLive(e, 2)); err != nil && !errors.Is(err, ErrRebalanceBusy) {
				t.Errorf("merge partitions: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				i := (n + r) % len(qs)
				if err := oracle.DiffSearch(hitsOf(e.Search(qs[i], tau, nil)), wantSearch[i]); err != nil {
					t.Errorf("search %d: %v", qs[i].ID, err)
					return
				}
				if err := oracle.DiffKNN(hitsOf(e.SearchKNN(qs[i], k)), wantKNN[i]); err != nil {
					t.Errorf("knn %d: %v", qs[i].ID, err)
					return
				}
				if n%4 == r {
					if err := diffBaseJoin(e.Join(e, joinTau, DefaultJoinOptions(), nil), wantJoin, far); err != nil {
						t.Errorf("self-join: %v", err)
						return
					}
				}
				queries.Add(1)
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if n := queries.Load(); n < minQueries {
		t.Fatalf("%d query rounds ran beside the churn, want %d", n, minQueries)
	}
}

// smallestLive is the n live partitions with the fewest visible members.
func smallestLive(e *Engine, n int) []int {
	e.mu.RLock()
	v := e.lay.View()
	e.mu.RUnlock()
	var live []int
	for pid, b := range v.Bounds {
		if !b.Retired {
			live = append(live, pid)
		}
	}
	slices.SortStableFunc(live, func(a, b int) int { return cmp.Compare(v.Live[a], v.Live[b]) })
	return live[:min(n, len(live))]
}

// diffBaseJoin holds a self-join's pairs among members below far to want;
// a pair joining a member below far with one at or above it is an error.
func diffBaseJoin(got []Pair, want []oracle.Pair, far int) error {
	var kept []Pair
	for _, p := range got {
		switch a, b := p.T.ID < far, p.Q.ID < far; {
		case a && b:
			kept = append(kept, p)
		case a != b:
			return fmt.Errorf("pair (%d, %d) joins the two regions", p.T.ID, p.Q.ID)
		}
	}
	return oracle.DiffJoin(pairsOf(kept), want)
}
