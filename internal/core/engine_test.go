package core

import (
	"math/rand"
	"testing"

	"dita/internal/cluster"
	"dita/internal/gen"
	"dita/internal/measure"
	"dita/internal/oracle"
	"dita/internal/traj"
	"dita/internal/trie"
)

func smallDataset(n int, seed int64) *traj.Dataset {
	return gen.Generate(gen.BeijingLike(n, seed))
}

func smallOpts(workers int) Options {
	o := DefaultOptions()
	o.NG = 3
	o.Trie.MinNode = 4
	o.Cluster = cluster.New(cluster.DefaultConfig(workers))
	return o
}

// hitsOf and pairsOf are the adapters from the engine's answers to the
// oracle's.
func hitsOf(rs []SearchResult) []oracle.Hit {
	out := make([]oracle.Hit, len(rs))
	for i, r := range rs {
		out[i] = oracle.Hit{ID: r.Traj.ID, Distance: r.Distance}
	}
	return out
}

func pairsOf(ps []Pair) []oracle.Pair {
	out := make([]oracle.Pair, len(ps))
	for i, p := range ps {
		out[i] = oracle.Pair{T: p.T.ID, Q: p.Q.ID, Distance: p.Distance}
	}
	return out
}

// checkSearch fails unless got is the oracle's search answer over members.
func checkSearch(t testing.TB, label string, got []SearchResult, members []*traj.T, m measure.Measure, q *traj.T, tau float64) {
	t.Helper()
	if err := oracle.DiffSearch(hitsOf(got), oracle.Search(members, m, q, tau)); err != nil {
		t.Fatalf("%s: q=%d τ=%v: search: %v", label, q.ID, tau, err)
	}
}

func TestEngineBuild(t *testing.T) {
	d := smallDataset(500, 1)
	e, err := NewEngine(d, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range e.Partitions() {
		total += len(p.Trajs)
		if p.Index == nil {
			t.Fatal("partition missing local index")
		}
		if len(p.meta) != len(p.Trajs) {
			t.Fatal("metadata misaligned")
		}
		// Partition MBRs must cover member endpoints.
		for _, tr := range p.Trajs {
			if !p.MBRf.Contains(tr.First()) || !p.MBRl.Contains(tr.Last()) {
				t.Fatal("partition MBR does not cover member endpoints")
			}
		}
	}
	if total != d.Len() {
		t.Fatalf("partitions hold %d trajs, dataset has %d", total, d.Len())
	}
	if e.BuildTime <= 0 {
		t.Error("BuildTime not recorded")
	}
	g, l := e.IndexSizeBytes()
	if g <= 0 || l <= 0 {
		t.Errorf("index sizes: global=%d local=%d", g, l)
	}
	if _, err := NewEngine(nil, smallOpts(2)); err == nil {
		t.Error("nil dataset accepted")
	}
}

// Distributed search must return exactly the brute-force answer for all
// measures.
func TestSearchMatchesBruteForce(t *testing.T) {
	d := smallDataset(400, 2)
	for _, m := range sixMeasures() {
		opts := smallOpts(4)
		opts.Measure = m
		e, err := NewEngine(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		queries := gen.Queries(d, 12, 3)
		for _, q := range queries {
			var tau float64
			switch m.Accumulation() {
			case measure.AccumEdit:
				tau = 5
			case measure.AccumMax:
				tau = 0.01
			default:
				tau = 0.05
			}
			var stats SearchStats
			got := e.Search(q, tau, &stats)
			checkSearch(t, m.Name(), got, d.Trajs, m, q, tau)
			if stats.Results != len(got) {
				t.Errorf("stats.Results = %d, want %d", stats.Results, len(got))
			}
		}
	}
}

// The search must prune partitions: on spread data with a small τ, most
// partitions are irrelevant.
func TestGlobalPruning(t *testing.T) {
	d := smallDataset(1000, 6)
	e, err := NewEngine(d, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	nparts := len(e.Partitions())
	if nparts < 4 {
		t.Skipf("too few partitions (%d) to check pruning", nparts)
	}
	pruned := false
	for _, q := range gen.Queries(d, 10, 7) {
		var stats SearchStats
		e.Search(q, 0.002, &stats)
		if stats.RelevantPartitions < nparts {
			pruned = true
		}
	}
	if !pruned {
		t.Error("global index never pruned a partition at τ=0.002")
	}
}

// Search with RandomPartition must still be exact (the ablation changes
// performance, not correctness).
func TestRandomPartitionExact(t *testing.T) {
	d := smallDataset(300, 8)
	opts := smallOpts(4)
	opts.RandomPartition = true
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range gen.Queries(d, 8, 9) {
		checkSearch(t, "random partitioning", e.Search(q, 0.03, nil), d.Trajs, measure.DTW{}, q, 0.03)
	}
}

func TestSearchDegenerate(t *testing.T) {
	d := smallDataset(50, 10)
	e, err := NewEngine(d, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Search(nil, 1, nil); got != nil {
		t.Error("nil query should return nil")
	}
	if got := e.Search(&traj.T{}, 1, nil); got != nil {
		t.Error("empty query should return nil")
	}
	// Zero threshold: only exact duplicates (the query itself).
	q := d.Trajs[0]
	got := e.Search(q, 0, nil)
	found := false
	for _, r := range got {
		if r.Traj.ID == q.ID {
			found = true
		}
	}
	if !found {
		t.Error("query trajectory not found at τ=0")
	}
}

// Engine must work on a single-worker "centralized" cluster (Appendix C).
func TestCentralizedMode(t *testing.T) {
	d := smallDataset(200, 11)
	e, err := NewEngine(d, smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	q := gen.Queries(d, 1, 12)[0]
	checkSearch(t, "centralized", e.Search(q, 0.05, nil), d.Trajs, measure.DTW{}, q, 0.05)
}

// Workers must actually share the search workload.
func TestWorkDistribution(t *testing.T) {
	d := smallDataset(2000, 13)
	opts := smallOpts(4)
	opts.NG = 4
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.Cluster().Reset() // count the searches' work, not the build's
	for _, q := range gen.Queries(d, 50, 14) {
		e.Search(q, 0.05, nil)
	}
	m := e.Cluster().Metrics()
	busyWorkers := 0
	for _, b := range m.WorkerBusy {
		if b > 0 {
			busyWorkers++
		}
	}
	if busyWorkers < 2 {
		t.Errorf("only %d workers did any work", busyWorkers)
	}
}

func TestTrieConfigRespected(t *testing.T) {
	d := smallDataset(300, 15)
	opts := smallOpts(2)
	opts.Trie = trie.Config{K: 2, NLAlign: 4, NLPivot: 2, MinNode: 2}
	e, err := NewEngine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(0))
	q := d.Trajs[rng.Intn(d.Len())]
	checkSearch(t, "custom trie config", e.Search(q, 0.04, nil), d.Trajs, measure.DTW{}, q, 0.04)
}
