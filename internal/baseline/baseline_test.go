package baseline

import (
	"slices"
	"testing"

	"dita/internal/cluster"
	"dita/internal/core"
	"dita/internal/gen"
	"dita/internal/measure"
	"dita/internal/oracle"
	"dita/internal/traj"
)

// pairsOf is the adapter from a baseline's join answer, in no order, to the
// oracle's.
func pairsOf(ps []core.Pair) []oracle.Pair {
	out := make([]oracle.Pair, len(ps))
	for i, p := range ps {
		out[i] = oracle.Pair{T: p.T.ID, Q: p.Q.ID, Distance: p.Distance}
	}
	return oracle.SortPairs(out)
}

// All three baselines must return exactly the brute-force answers — they
// are slower than DITA, not wronger.
func TestBaselinesExact(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(300, 1))
	for _, m := range []measure.Measure{measure.DTW{}, measure.Frechet{}} {
		cl := cluster.New(cluster.DefaultConfig(4))
		systems := []Searcher{
			NewNaive(d, m, cl),
			NewSimba(d, m, cluster.New(cluster.DefaultConfig(4)), 9),
			NewDFT(d, m, cluster.New(cluster.DefaultConfig(4)), 9),
		}
		var tau float64
		if m.Accumulation() == measure.AccumMax {
			tau = 0.01
		} else {
			tau = 0.05
		}
		for _, q := range gen.Queries(d, 10, 2) {
			// A baseline's answer carries no distance: ids, ascending.
			want := oracle.IDs(oracle.Search(d.Trajs, m, q, tau))
			for _, s := range systems {
				var got []int
				for _, tr := range s.Search(q, tau) {
					got = append(got, tr.ID)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s/%s q=%d: ids %v, the oracle's %v", m.Name(), s.Name(), q.ID, got, want)
				}
			}
		}
	}
}

func TestBaselineDegenerate(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(50, 3))
	cl := cluster.New(cluster.DefaultConfig(2))
	for _, s := range []Searcher{
		NewNaive(d, nil, cl),
		NewSimba(d, nil, nil, 0),
		NewDFT(d, nil, nil, 0),
	} {
		if got := s.Search(nil, 1); got != nil {
			t.Errorf("%s: nil query returned %v", s.Name(), got)
		}
		if got := s.Search(&traj.T{}, 1); got != nil {
			t.Errorf("%s: empty query returned %v", s.Name(), got)
		}
		if s.Cluster() == nil {
			t.Errorf("%s: nil cluster", s.Name())
		}
	}
}

func TestSimbaJoinExact(t *testing.T) {
	a := gen.Generate(gen.BeijingLike(80, 4))
	b := gen.Generate(gen.BeijingLike(70, 5))
	for _, tr := range b.Trajs {
		tr.ID += 10000
	}
	cl := cluster.New(cluster.DefaultConfig(4))
	sa := NewSimba(a, measure.DTW{}, cl, 6)
	sb := NewSimba(b, measure.DTW{}, cl, 6)
	if err := oracle.DiffJoin(pairsOf(sa.Join(sb, 0.04)), oracle.Join(a.Trajs, b.Trajs, measure.DTW{}, 0.04)); err != nil {
		t.Fatalf("Simba join: %v", err)
	}
}

func TestNaiveJoinExact(t *testing.T) {
	a := gen.Generate(gen.BeijingLike(40, 6))
	b := gen.Generate(gen.BeijingLike(40, 7))
	for _, tr := range b.Trajs {
		tr.ID += 10000
	}
	cl := cluster.New(cluster.DefaultConfig(2))
	n := NewNaive(a, measure.DTW{}, cl)
	if err := oracle.DiffJoin(pairsOf(n.Join(b, 0.04)), oracle.Join(a.Trajs, b.Trajs, measure.DTW{}, 0.04)); err != nil {
		t.Fatalf("Naive join: %v", err)
	}
}

// DFT's defining costs must be visible: bitmap sizes, barrier traffic, and
// a larger local index than Simba's.
func TestDFTCostCharacteristics(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(400, 8))
	f := NewDFT(d, measure.DTW{}, cluster.New(cluster.DefaultConfig(4)), 8)
	if f.BitmapBytes() != (400+7)/8 {
		t.Errorf("BitmapBytes = %d", f.BitmapBytes())
	}
	if f.JoinBitmapBytes() != int64(400)*int64(f.BitmapBytes()) {
		t.Errorf("JoinBitmapBytes = %d", f.JoinBitmapBytes())
	}
	s := NewSimba(d, measure.DTW{}, cluster.New(cluster.DefaultConfig(4)), 8)
	_, dftLocal := f.IndexSizeBytes()
	_, simbaLocal := s.IndexSizeBytes()
	if dftLocal <= simbaLocal {
		t.Errorf("DFT local index (%d) should exceed Simba's (%d): it indexes every segment", dftLocal, simbaLocal)
	}
	// The barrier should show up as traffic to/from the master.
	q := gen.Queries(d, 1, 9)[0]
	f.Search(q, 0.02)
	if f.Cluster().Metrics().Messages == 0 {
		t.Error("DFT search produced no network messages")
	}
}

func TestBaselineRejectsUnanchoredMeasure(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(20, 10))
	defer func() {
		if recover() == nil {
			t.Error("Simba must reject edit measures")
		}
	}()
	NewSimba(d, measure.EDR{Eps: 1}, nil, 2)
}
