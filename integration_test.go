package dita_test

// End-to-end integration tests across the public API: ingestion →
// preprocessing → indexing → querying through every front end, plus
// consistency between the engine, SQL, and DataFrame paths.

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"dita"
)

// TestPipelineCSVRoundTrip drives the full ingestion pipeline: generate →
// CSV → read back → simplify → index → query, asserting result
// consistency at each stage.
func TestPipelineCSVRoundTrip(t *testing.T) {
	orig := dita.Generate(dita.BeijingLike(400, 50))
	var buf bytes.Buffer
	if err := dita.WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := dita.ReadCSV(&buf, "loaded")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != orig.Len() {
		t.Fatalf("CSV round trip lost data: %d vs %d", loaded.Len(), orig.Len())
	}
	opts := dita.DefaultOptions()
	opts.Cluster = dita.NewCluster(4)
	e1, err := dita.NewEngine(orig, opts)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := dita.NewEngine(loaded, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := dita.Queries(orig, 5, 51)
	for _, query := range q {
		r1 := e1.Search(query, 0.005, nil)
		r2 := e2.Search(query, 0.005, nil)
		if len(r1) != len(r2) {
			t.Fatalf("results diverge after CSV round trip: %d vs %d", len(r1), len(r2))
		}
	}

	// Simplification: results on simplified data stay close (every point
	// moves at most eps, so DTW changes by at most eps per aligned pair) —
	// here we only assert the pipeline runs and the dataset stays valid.
	simp := dita.Simplify(orig, 0.0001)
	if err := simp.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := dita.NewEngine(simp, opts); err != nil {
		t.Fatal(err)
	}
}

// TestFrontEndConsistency asserts the three query paths (engine API, SQL,
// DataFrame) return identical result sets, for search, join, and kNN.
func TestFrontEndConsistency(t *testing.T) {
	data := dita.Generate(dita.ChengduLike(500, 52))
	cl := dita.NewCluster(4)
	opts := dita.DefaultOptions()
	opts.Cluster = cl
	db := dita.NewDB(cl, opts)
	db.Register("t", data)
	if _, err := db.Exec("CREATE INDEX i ON t USE TRIE"); err != nil {
		t.Fatal(err)
	}
	df, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dita.NewEngine(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := dita.Queries(data, 1, 53)[0]

	api := eng.Search(q, 0.004, nil)
	sql, err := db.Exec("SELECT * FROM t WHERE DTW(t, ?) <= 0.004", q)
	if err != nil {
		t.Fatal(err)
	}
	dfr, err := df.SimilaritySearch(q, "DTW", 0.004)
	if err != nil {
		t.Fatal(err)
	}
	if len(api) != len(sql.Trajs) || len(api) != len(dfr) {
		t.Fatalf("front ends disagree: api=%d sql=%d df=%d", len(api), len(sql.Trajs), len(dfr))
	}
	for i := range api {
		if api[i].Traj.ID != sql.Trajs[i].Traj.ID || api[i].Traj.ID != dfr[i].Traj.ID {
			t.Fatalf("result %d differs across front ends", i)
		}
	}

	// kNN consistency.
	knnAPI := eng.SearchKNN(q, 4)
	knnSQL, err := db.Exec("SELECT * FROM t ORDER BY DTW(t, ?) LIMIT 4", q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range knnAPI {
		if knnAPI[i].Traj.ID != knnSQL.Trajs[i].Traj.ID {
			t.Fatalf("kNN result %d differs", i)
		}
	}
}

// TestConcurrentQueries hammers one DB from several goroutines; results
// must stay correct and the race detector must stay quiet.
func TestConcurrentQueries(t *testing.T) {
	data := dita.Generate(dita.BeijingLike(300, 54))
	db := dita.NewDB(dita.NewCluster(4), dita.DefaultOptions())
	db.Register("t", data)
	if _, err := db.Exec("CREATE INDEX i ON t USE TRIE"); err != nil {
		t.Fatal(err)
	}
	qs := dita.Queries(data, 8, 55)
	want := make([]int, len(qs))
	for i, q := range qs {
		res, err := db.Exec("SELECT * FROM t WHERE DTW(t, ?) <= 0.004", q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = len(res.Trajs)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range qs {
				res, err := db.Exec("SELECT * FROM t WHERE DTW(t, ?) <= 0.004", q)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Trajs) != want[i] {
					errs <- errMismatch(i, len(res.Trajs), want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type mismatchError struct{ i, got, want int }

func errMismatch(i, got, want int) error { return mismatchError{i, got, want} }
func (e mismatchError) Error() string {
	return "concurrent query result drift"
}

// TestKNNJoinPublicAPI exercises the kNN join through the facade.
func TestKNNJoinPublicAPI(t *testing.T) {
	data := dita.Generate(dita.BeijingLike(120, 56))
	opts := dita.DefaultOptions()
	opts.Cluster = dita.NewCluster(2)
	e1, err := dita.NewEngine(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := dita.NewEngine(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	nn, err := e1.KNNJoinContext(context.Background(), e2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != data.Len() {
		t.Fatalf("KNNJoin covered %d of %d", len(nn), data.Len())
	}
	for id, res := range nn {
		if len(res) != 1 || res[0].Traj.ID != id {
			t.Fatalf("1-NN of %d in identical dataset should be itself, got %v", id, res)
		}
	}
}

// TestMiningPublicAPI runs clustering and frequent-route mining through
// the facade on route-shared data.
func TestMiningPublicAPI(t *testing.T) {
	data := dita.Generate(dita.BeijingLike(400, 60))
	opts := dita.DefaultOptions()
	opts.Cluster = dita.NewCluster(4)
	eng, err := dita.NewEngine(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	clusters := dita.ClusterTrajectories(eng, dita.MiningOptions{Tau: 0.003, MinSupport: 3})
	if len(clusters) == 0 {
		t.Fatal("no clusters found on route-shared data")
	}
	covered := 0
	for _, c := range clusters {
		covered += c.Support()
	}
	if covered < data.Len()/10 {
		t.Errorf("clusters cover only %d of %d trajectories", covered, data.Len())
	}
	routes := dita.FrequentRoutes(eng, dita.MiningOptions{Tau: 0.003, MinSupport: 3})
	if len(routes) == 0 {
		t.Fatal("no frequent routes on route-shared data")
	}
	if routes[0].Support < routes[len(routes)-1].Support {
		t.Error("routes not sorted by support")
	}
	out := dita.Outliers(eng, 0.001, 1)
	if len(out) == 0 || len(out) == data.Len() {
		t.Errorf("outliers = %d of %d; expected a strict subset", len(out), data.Len())
	}
}
