package sqlx

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dita/internal/core"
	"dita/internal/gen"
	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/traj"
)

func newTestDB(t *testing.T, n int) (*DB, *traj.Dataset) {
	t.Helper()
	d := gen.Generate(gen.BeijingLike(n, 1))
	opts := core.DefaultOptions()
	opts.NG = 3
	db := NewDB(nil, opts)
	db.Register("T", d)
	return db, d
}

func TestParseStatements(t *testing.T) {
	good := []string{
		"CREATE TABLE trips",
		"LOAD 'data.csv' INTO trips",
		"CREATE INDEX TrieIndex ON trips USE TRIE",
		"SELECT * FROM trips",
		"SELECT * FROM trips WHERE DTW(trips, ?) <= 0.005",
		"SELECT * FROM T WHERE DTW(T, TRAJECTORY((1 1), (2 2), (3 3))) <= 0.5;",
		"SELECT * FROM T WHERE frechet(T.traj, ?) <= 0.01",
		"SELECT * FROM T TRA-JOIN Q ON DTW(T, Q) <= 0.005",
		"SELECT * FROM T TRAJOIN Q ON EDR(T.traj, Q.traj) <= 3",
		"SELECT * FROM T ORDER BY DTW(T, ?) LIMIT 5",
		"SHOW TABLES",
		"SHOW INDEXES",
		"select * from t where dtw(t, ?) <= 1 -- comment",
		"INSERT INTO t VALUES (7, TRAJECTORY((1 1), (2 2)))",
		"DROP TABLE t",
		"DROP INDEX ON t",
	}
	for _, q := range good {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse(%q): %v", q, err)
		}
	}
	bad := []string{
		"",
		"DROP x",
		"DROP INDEX x",
		"INSERT INTO t VALUES (1.5, TRAJECTORY((1 1), (2 2)))",
		"INSERT INTO t VALUES (1, ?)",
		"SELECT FROM T",
		"SELECT * FROM",
		"SELECT * FROM T WHERE DTW(T) <= 1",
		"SELECT * FROM T WHERE DTW(T, ?) >= 1",
		"SELECT * FROM T WHERE DTW(T, ?)",
		"SELECT * FROM T TRA-JOIN Q",
		"SELECT * FROM T ORDER BY DTW(T, ?)",
		"SELECT * FROM T ORDER BY DTW(T, ?) LIMIT 0",
		"SELECT * FROM T ORDER BY DTW(T, ?) LIMIT 2.5",
		"SELECT * FROM T WHERE DTW(T, TRAJECTORY((1 1))) <= 1",
		"CREATE INDEX i ON t USE RTREE",
		"LOAD data.csv INTO t",
		"SELECT * FROM T WHERE DTW(T, ?) <= 1 garbage",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestSQLSearchMatchesBruteForce(t *testing.T) {
	db, d := newTestDB(t, 300)
	q := gen.Queries(d, 1, 2)[0]
	tau := 0.05
	want := 0
	for _, tr := range d.Trajs {
		if (measure.DTW{}).Distance(tr.Points, q.Points) <= tau {
			want++
		}
	}
	// Unindexed: full scan plan.
	res, err := db.Exec("SELECT * FROM T WHERE DTW(T, ?) <= 0.05", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajs) != want {
		t.Fatalf("full scan: %d results, want %d", len(res.Trajs), want)
	}
	if !strings.Contains(res.Plan, "FullScan") {
		t.Errorf("plan = %q, want FullScan before CREATE INDEX", res.Plan)
	}
	// Indexed: trie plan, same answers.
	if _, err := db.Exec("CREATE INDEX TrieIndex ON T USE TRIE"); err != nil {
		t.Fatal(err)
	}
	res2, err := db.Exec("SELECT * FROM T WHERE DTW(T, ?) <= 0.05", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Trajs) != want {
		t.Fatalf("index scan: %d results, want %d", len(res2.Trajs), want)
	}
	if !strings.Contains(res2.Plan, "TrieIndexSearch") {
		t.Errorf("plan = %q, want TrieIndexSearch after CREATE INDEX", res2.Plan)
	}
}

func TestSQLTrajectoryLiteral(t *testing.T) {
	db, d := newTestDB(t, 100)
	q := d.Trajs[0]
	var sb strings.Builder
	sb.WriteString("SELECT * FROM T WHERE DTW(T, TRAJECTORY(")
	for i, p := range q.Points {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%.10f %.10f)", p.X, p.Y)
	}
	sb.WriteString(")) <= 0.0001")
	res, err := db.Exec(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Trajs {
		if r.Traj.ID == q.ID {
			found = true
		}
	}
	if !found {
		t.Error("literal self-query did not find the source trajectory")
	}
}

func TestSQLJoin(t *testing.T) {
	db, d := newTestDB(t, 120)
	d2 := gen.Generate(gen.BeijingLike(100, 5))
	for _, tr := range d2.Trajs {
		tr.ID += 10000
	}
	db.Register("Q", d2)
	res, err := db.Exec("SELECT * FROM T TRA-JOIN Q ON DTW(T, Q) <= 0.04")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, a := range d.Trajs {
		for _, b := range d2.Trajs {
			if (measure.DTW{}).Distance(a.Points, b.Points) <= 0.04 {
				want++
			}
		}
	}
	if len(res.Pairs) != want {
		t.Fatalf("join: %d pairs, want %d", len(res.Pairs), want)
	}
}

func TestSQLKNN(t *testing.T) {
	db, d := newTestDB(t, 150)
	q := gen.Queries(d, 1, 6)[0]
	res, err := db.Exec("SELECT * FROM T ORDER BY DTW(T, ?) LIMIT 7", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajs) != 7 {
		t.Fatalf("kNN returned %d, want 7", len(res.Trajs))
	}
	if res.Trajs[0].Traj.ID != q.ID {
		t.Errorf("nearest neighbor of a member should be itself, got %d", res.Trajs[0].Traj.ID)
	}
}

func TestSQLDDLAndShow(t *testing.T) {
	db, _ := newTestDB(t, 50)
	if _, err := db.Exec("CREATE TABLE extra"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		t.Fatalf("SHOW TABLES: %v", res.Tables)
	}
	if _, err := db.Exec("CREATE INDEX i ON T USE TRIE"); err != nil {
		t.Fatal(err)
	}
	res, err = db.Exec("SHOW INDEXES")
	if err != nil || len(res.Tables) != 1 {
		t.Fatalf("SHOW INDEXES: %v %v", res.Tables, err)
	}
}

func TestSQLLoad(t *testing.T) {
	db, d := newTestDB(t, 30)
	dir := t.TempDir()
	path := filepath.Join(dir, "trips.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := traj.WriteCSV(f, d); err != nil {
		t.Fatal(err)
	}
	f.Close()
	res, err := db.Exec("LOAD '" + path + "' INTO loaded")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "30") {
		t.Errorf("load message: %q", res.Message)
	}
	df, err := db.Table("loaded")
	if err != nil || df.Count() != 30 {
		t.Fatalf("loaded table: %v, %d", err, df.Count())
	}
}

func TestSQLErrors(t *testing.T) {
	db, _ := newTestDB(t, 20)
	cases := []string{
		"SELECT * FROM nosuch WHERE DTW(nosuch, ?) <= 1",
		"SELECT * FROM T WHERE HAUSDORFF(T, ?) <= 1",
		"LOAD '/nonexistent/file.csv' INTO x",
		"SELECT * FROM T TRA-JOIN nosuch ON DTW(T, nosuch) <= 1",
	}
	for _, c := range cases {
		if _, err := db.Exec(c, nil); err == nil {
			t.Errorf("Exec(%q) should fail", c)
		}
	}
	// Missing parameter.
	if _, err := db.Exec("SELECT * FROM T WHERE DTW(T, ?) <= 1"); err == nil {
		t.Error("missing parameter accepted")
	}
}

func TestDataFrameAPI(t *testing.T) {
	db, d := newTestDB(t, 200)
	df, err := db.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	if df.Count() != 200 || df.Name() != "T" || len(df.Collect()) != 200 {
		t.Fatal("basic accessors broken")
	}
	if err := df.CreateTrieIndex(); err != nil {
		t.Fatal(err)
	}
	q := gen.Queries(d, 1, 7)[0]
	res, err := df.SimilaritySearch(q, "DTW", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, tr := range d.Trajs {
		if (measure.DTW{}).Distance(tr.Points, q.Points) <= 0.05 {
			want++
		}
	}
	if len(res) != want {
		t.Fatalf("DataFrame search: %d, want %d", len(res), want)
	}
	knn, err := df.KNN(q, "DTW", 3)
	if err != nil || len(knn) != 3 {
		t.Fatalf("DataFrame KNN: %v %d", err, len(knn))
	}
	d2 := gen.Generate(gen.BeijingLike(80, 8))
	for _, tr := range d2.Trajs {
		tr.ID += 10000
	}
	db.Register("J", d2)
	df2, _ := db.Table("J")
	pairs, err := df.SimilarityJoin(df2, "DTW", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := 0
	for _, a := range d.Trajs {
		for _, b := range d2.Trajs {
			if (measure.DTW{}).Distance(a.Points, b.Points) <= 0.03 {
				wantPairs++
			}
		}
	}
	if len(pairs) != wantPairs {
		t.Fatalf("DataFrame join: %d, want %d", len(pairs), wantPairs)
	}
	if _, err := df.SimilaritySearch(q, "bogus", 1); err == nil {
		t.Error("bogus measure accepted")
	}
}

func TestExplain(t *testing.T) {
	db, _ := newTestDB(t, 40)
	// Unindexed: full scan plan; EXPLAIN must not execute.
	res, err := db.Exec("EXPLAIN SELECT * FROM T WHERE DTW(T, ?) <= 0.01", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "FullScanFilter") || res.Trajs != nil {
		t.Errorf("explain = %+v", res)
	}
	if _, err := db.Exec("CREATE INDEX i ON T USE TRIE"); err != nil {
		t.Fatal(err)
	}
	res, err = db.Exec("EXPLAIN SELECT * FROM T WHERE DTW(T, ?) <= 0.01", nil)
	if err != nil || !strings.Contains(res.Plan, "TrieIndexSearch") {
		t.Errorf("explain after index: %v %+v", err, res)
	}
	res, err = db.Exec("EXPLAIN SELECT * FROM T TRA-JOIN T ON DTW(T, T) <= 0.01")
	if err != nil || !strings.Contains(res.Plan, "TrieIndexJoin") || res.Pairs != nil {
		t.Errorf("explain join: %v %+v", err, res)
	}
	res, err = db.Exec("EXPLAIN SELECT * FROM T ORDER BY DTW(T, ?) LIMIT 2", nil)
	if err != nil || !strings.Contains(res.Plan, "KNNIndexSearch") {
		t.Errorf("explain knn: %v %+v", err, res)
	}
	res, err = db.Exec("EXPLAIN SELECT * FROM T")
	if err != nil || !strings.Contains(res.Plan, "FullScan(") {
		t.Errorf("explain scan: %v %+v", err, res)
	}
	if _, err := db.Exec("EXPLAIN SHOW TABLES"); err == nil {
		t.Error("EXPLAIN of non-SELECT accepted")
	}
}

func TestExplainAnalyze(t *testing.T) {
	db, d := newTestDB(t, 200)
	q := gen.Queries(d, 1, 3)[0]
	tau := 0.05
	want := 0
	for _, tr := range d.Trajs {
		if (measure.DTW{}).Distance(tr.Points, q.Points) <= tau {
			want++
		}
	}
	check := func(res *Result, err error, plan string) *AnalyzeReport {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if res.Analyze == nil {
			t.Fatalf("EXPLAIN ANALYZE returned no report: %+v", res)
		}
		if res.Trajs != nil || res.Pairs != nil {
			t.Errorf("EXPLAIN ANALYZE leaked rows: %+v", res)
		}
		if !strings.Contains(res.Analyze.Plan, plan) {
			t.Errorf("plan = %q, want %q", res.Analyze.Plan, plan)
		}
		if !res.Analyze.Funnel.Monotone() {
			t.Errorf("funnel not monotone: %+v", res.Analyze.Funnel)
		}
		if res.Analyze.Elapsed <= 0 {
			t.Errorf("elapsed = %v, want > 0", res.Analyze.Elapsed)
		}
		return res.Analyze
	}

	// Unindexed: the fallback scan verifies everything.
	res, err := db.Exec("EXPLAIN ANALYZE SELECT * FROM T WHERE DTW(T, ?) <= 0.05", q)
	an := check(res, err, "FullScanFilter")
	if an.Rows != want || res.Count != want {
		t.Errorf("full scan analyze rows = %d (count %d), want %d", an.Rows, res.Count, want)
	}
	if an.Funnel.Considered != 200 || an.Funnel.Verified != 200 || an.Funnel.Matched != int64(want) {
		t.Errorf("full scan funnel = %+v, want flat 200 → %d", an.Funnel, want)
	}

	// Indexed: the engine's real funnel, same answer, fewer verifications.
	if _, err := db.Exec("CREATE INDEX i ON T USE TRIE"); err != nil {
		t.Fatal(err)
	}
	res, err = db.Exec("EXPLAIN ANALYZE SELECT * FROM T WHERE DTW(T, ?) <= 0.05", q)
	an = check(res, err, "TrieIndexSearch")
	if an.Rows != want || an.Funnel.Matched != int64(want) {
		t.Errorf("index analyze rows=%d matched=%d, want %d", an.Rows, an.Funnel.Matched, want)
	}
	if an.Funnel.Relevant == 0 || an.Funnel.Considered == 0 {
		t.Errorf("index funnel missing stages: %+v", an.Funnel)
	}

	// Join: funnel from JoinStats. A self-join's funnel counts unordered
	// pairs — each of the table's 200 rows with itself, every other match
	// once for its two rows.
	res, err = db.Exec("EXPLAIN ANALYZE SELECT * FROM T TRA-JOIN T ON DTW(T, T) <= 0.01")
	an = check(res, err, "TrieIndexJoin")
	if 2*an.Funnel.Matched-200 != int64(an.Rows) || res.Count != an.Rows {
		t.Errorf("join analyze matched=%d rows=%d count=%d", an.Funnel.Matched, an.Rows, res.Count)
	}

	// kNN: exactly k rows out.
	res, err = db.Exec("EXPLAIN ANALYZE SELECT * FROM T ORDER BY DTW(T, ?) LIMIT 3", q)
	an = check(res, err, "KNNIndexSearch")
	if an.Rows != 3 {
		t.Errorf("knn analyze rows = %d, want 3", an.Rows)
	}

	// Bare scan: flat funnel over the whole table.
	res, err = db.Exec("EXPLAIN ANALYZE SELECT * FROM T")
	an = check(res, err, "FullScan(")
	if an.Rows != 200 || an.Funnel.Matched != 200 {
		t.Errorf("scan analyze = %+v", an)
	}

	// Plain EXPLAIN still does not execute.
	res, err = db.Exec("EXPLAIN SELECT * FROM T WHERE DTW(T, ?) <= 0.05", q)
	if err != nil || res.Analyze != nil {
		t.Errorf("plain EXPLAIN gained a report: %v %+v", err, res)
	}
	if _, err := db.Exec("EXPLAIN ANALYZE SHOW TABLES"); err == nil {
		t.Error("EXPLAIN ANALYZE of non-SELECT accepted")
	}
}

func TestSQLCount(t *testing.T) {
	db, d := newTestDB(t, 80)
	res, err := db.Exec("SELECT COUNT(*) FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 80 || res.Trajs != nil {
		t.Errorf("COUNT(*) = %d, trajs=%v", res.Count, res.Trajs)
	}
	q := d.Trajs[0]
	full, err := db.Exec("SELECT * FROM T WHERE DTW(T, ?) <= 0.01", q)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := db.Exec("SELECT COUNT(*) FROM T WHERE DTW(T, ?) <= 0.01", q)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Count != len(full.Trajs) || cnt.Trajs != nil {
		t.Errorf("filtered COUNT = %d, want %d", cnt.Count, len(full.Trajs))
	}
	// Join count.
	db.Register("Q2", d)
	jc, err := db.Exec("SELECT COUNT(*) FROM T TRA-JOIN Q2 ON DTW(T, Q2) <= 0.001")
	if err != nil {
		t.Fatal(err)
	}
	if jc.Count < 80 || jc.Pairs != nil {
		t.Errorf("join COUNT = %d (want >= 80 self pairs)", jc.Count)
	}
	// Malformed COUNT forms.
	for _, bad := range []string{"SELECT COUNT(x) FROM T", "SELECT COUNT FROM T", "SELECT COUNT(*) T"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestSQLInsertAndDrop(t *testing.T) {
	db, d := newTestDB(t, 50)
	if _, err := db.Exec("CREATE INDEX i ON T USE TRIE"); err != nil {
		t.Fatal(err)
	}
	// Insert a new trajectory; the next search must see it.
	if _, err := db.Exec("INSERT INTO T VALUES (999999, TRAJECTORY((116.3 39.9), (116.31 39.91), (116.32 39.92)))"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT COUNT(*) FROM T")
	if err != nil || res.Count != 51 {
		t.Fatalf("count after insert: %v %d", err, res.Count)
	}
	q := &traj.T{ID: -1, Points: []geom.Point{{X: 116.3, Y: 39.9}, {X: 116.31, Y: 39.91}, {X: 116.32, Y: 39.92}}}
	hits, err := db.Exec("SELECT * FROM T WHERE DTW(T, ?) <= 0.0001", q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range hits.Trajs {
		if r.Traj.ID == 999999 {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted trajectory not found by indexed search")
	}
	// Duplicate id rejected.
	if _, err := db.Exec("INSERT INTO T VALUES (999999, TRAJECTORY((1 1), (2 2)))"); err == nil {
		t.Error("duplicate id accepted")
	}
	// Too-short literal rejected by validation at parse or insert time.
	if _, err := db.Exec("INSERT INTO T VALUES (5, TRAJECTORY((1 1)))"); err == nil {
		t.Error("single-point trajectory accepted")
	}
	// DROP INDEX flips the plan back to a full scan.
	if _, err := db.Exec("DROP INDEX ON T"); err != nil {
		t.Fatal(err)
	}
	plan, err := db.Exec("EXPLAIN SELECT * FROM T WHERE DTW(T, ?) <= 0.01")
	if err != nil || !strings.Contains(plan.Plan, "FullScanFilter") {
		t.Errorf("plan after DROP INDEX: %v %q", err, plan.Plan)
	}
	// DROP TABLE removes the catalog entry.
	if _, err := db.Exec("DROP TABLE T"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("SELECT COUNT(*) FROM T"); err == nil {
		t.Error("dropped table still queryable")
	}
	if _, err := db.Exec("DROP TABLE nosuch"); err == nil {
		t.Error("dropping unknown table accepted")
	}
	_ = d
}

func TestSQLKNNJoin(t *testing.T) {
	db, d := newTestDB(t, 60)
	d2 := gen.Generate(gen.BeijingLike(50, 9))
	for _, tr := range d2.Trajs {
		tr.ID += 10000
	}
	db.Register("R", d2)
	res, err := db.Exec("SELECT * FROM T TRA-KNN-JOIN R USING DTW LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 2*d.Len() {
		t.Fatalf("kNN join returned %d pairs, want %d", len(res.Pairs), 2*d.Len())
	}
	// Each left trajectory's 2 nearest must match brute force.
	byLeft := map[int][]int{}
	for _, p := range res.Pairs {
		byLeft[p.T.ID] = append(byLeft[p.T.ID], p.Q.ID)
	}
	m := measure.DTW{}
	for _, tr := range d.Trajs[:10] { // spot check
		type dr struct {
			id int
			d  float64
		}
		var ds []dr
		for _, q := range d2.Trajs {
			ds = append(ds, dr{q.ID, m.Distance(tr.Points, q.Points)})
		}
		sort.Slice(ds, func(a, b int) bool {
			if ds[a].d != ds[b].d {
				return ds[a].d < ds[b].d
			}
			return ds[a].id < ds[b].id
		})
		got := byLeft[tr.ID]
		if got[0] != ds[0].id || got[1] != ds[1].id {
			t.Fatalf("traj %d neighbors %v, want [%d %d]", tr.ID, got, ds[0].id, ds[1].id)
		}
	}
	// EXPLAIN path.
	plan, err := db.Exec("EXPLAIN SELECT * FROM T TRA-KNN-JOIN R USING DTW LIMIT 2")
	if err != nil || !strings.Contains(plan.Plan, "KNNIndexJoin") {
		t.Errorf("explain knn join: %v %+v", err, plan)
	}
	// Bad forms.
	for _, bad := range []string{
		"SELECT * FROM T TRA-KNN-JOIN R USING DTW",
		"SELECT * FROM T TRA-KNN-JOIN R LIMIT 2",
		"SELECT * FROM T TRA-KNN-JOIN R USING DTW LIMIT 0",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
	// DataFrame equivalent.
	dfT, _ := db.Table("T")
	dfR, _ := db.Table("R")
	nn, err := dfT.KNNJoin(dfR, "DTW", 2)
	if err != nil || len(nn) != d.Len() {
		t.Fatalf("DataFrame KNNJoin: %v, %d", err, len(nn))
	}
}
