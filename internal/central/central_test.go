package central

import (
	"testing"

	"dita/internal/gen"
	"dita/internal/measure"
	"dita/internal/oracle"
	"dita/internal/traj"
)

// checkSearch fails unless got is the oracle's search answer over d.
func checkSearch(t *testing.T, name string, got []Result, d *traj.Dataset, m measure.Measure, q *traj.T, tau float64) {
	t.Helper()
	hits := make([]oracle.Hit, len(got))
	for i, r := range got {
		hits[i] = oracle.Hit{ID: r.Traj.ID, Distance: r.Distance}
	}
	if err := oracle.DiffSearch(hits, oracle.Search(d.Trajs, m, q, tau)); err != nil {
		t.Fatalf("%s: q=%d τ=%v: %v", name, q.ID, tau, err)
	}
}

func TestMBEExactDTW(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(300, 1))
	e := NewMBE(d, measure.DTW{}, 8)
	for _, q := range gen.Queries(d, 10, 2) {
		var st Stats
		got := e.Search(q, 0.05, &st)
		checkSearch(t, "MBE/DTW", got, d, measure.DTW{}, q, 0.05)
		if st.Candidates+st.Pruned != d.Len() {
			t.Fatalf("stats don't cover dataset: %+v", st)
		}
	}
}

func TestMBEExactFrechet(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(200, 3))
	e := NewMBE(d, measure.Frechet{}, 8)
	for _, q := range gen.Queries(d, 8, 4) {
		got := e.Search(q, 0.01, nil)
		checkSearch(t, "MBE/Frechet", got, d, measure.Frechet{}, q, 0.01)
	}
}

func TestMBEPrunes(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(500, 5))
	e := NewMBE(d, measure.DTW{}, 8)
	q := gen.Queries(d, 1, 6)[0]
	var st Stats
	e.Search(q, 0.005, &st)
	if st.Pruned == 0 {
		t.Error("MBE never pruned at τ=0.005")
	}
	if e.SizeBytes() <= 0 || e.BuildTime <= 0 {
		t.Error("MBE accounting broken")
	}
}

func TestVPTreeExact(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(250, 7))
	v := NewVPTree(d, measure.Frechet{}, 1)
	for _, q := range gen.Queries(d, 10, 8) {
		var st Stats
		got := v.Search(q, 0.01, &st)
		checkSearch(t, "VPTree", got, d, measure.Frechet{}, q, 0.01)
		if st.Candidates == 0 {
			t.Error("no distance evaluations counted")
		}
	}
}

func TestVPTreePrunes(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(600, 9))
	v := NewVPTree(d, measure.Frechet{}, 2)
	q := gen.Queries(d, 1, 10)[0]
	var st Stats
	v.Search(q, 0.002, &st)
	if st.Candidates >= d.Len() {
		t.Errorf("VP-tree evaluated all %d trajectories: no pruning", st.Candidates)
	}
	if v.BuildDistanceCalls() == 0 || v.BuildTime <= 0 {
		t.Error("VP-tree build accounting broken")
	}
}

func TestVPTreeRejectsNonMetric(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(20, 11))
	defer func() {
		if recover() == nil {
			t.Error("VP-tree must reject non-metric measures")
		}
	}()
	NewVPTree(d, measure.DTW{}, 1)
}

func TestCentralDegenerate(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(30, 12))
	e := NewMBE(d, nil, 0)
	if got := e.Search(nil, 1, nil); got != nil {
		t.Error("MBE nil query")
	}
	v := NewVPTree(d, nil, 3)
	if got := v.Search(nil, 1, nil); got != nil {
		t.Error("VPTree nil query")
	}
	empty := traj.NewDataset("e", nil)
	if v := NewVPTree(empty, measure.Frechet{}, 4); len(v.Search(d.Trajs[0], 100, nil)) != 0 {
		t.Error("empty VP-tree returned results")
	}
	if e := NewMBE(empty, measure.DTW{}, 4); len(e.Search(d.Trajs[0], 100, nil)) != 0 {
		t.Error("empty MBE returned results")
	}
}

func TestMBEJoinCount(t *testing.T) {
	d := gen.Generate(gen.BeijingLike(60, 13))
	e := NewMBE(d, measure.DTW{}, 8)
	got := e.Join(d, 0.02)
	if want := len(oracle.Join(d.Trajs, d.Trajs, measure.DTW{}, 0.02)); got != want {
		t.Errorf("MBE join count %d, want %d", got, want)
	}
}
