package sqlx

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"dita/internal/gen"
	"dita/internal/geom"
)

// TestRebuildsAdoptOnlyFreshMembers drives the engine adoption contract
// (core.NewEngine re-points the members it indexes) through the catalog
// while SELECTs run on the table's DTW engine and read the members they
// return: an INSERT clears the engines and a SELECT rebuilds one over the
// next generation, then a FRECHET SELECT builds a second engine over that
// same generation. Under -race any write to a member a live engine or a
// returned Result still reads is reported; the FRECHET build must write
// nothing at all.
func TestRebuildsAdoptOnlyFreshMembers(t *testing.T) {
	db, d := newTestDB(t, 400)
	if _, err := db.Exec("CREATE INDEX i ON T USE TRIE"); err != nil {
		t.Fatal(err)
	}
	n, qs := d.Len(), gen.Queries(d, 16, 5)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sql := "SELECT * FROM T WHERE DTW(T, ?) <= 0.01"
				if i%3 == 0 {
					sql = "SELECT * FROM T ORDER BY DTW(T, ?) LIMIT 5"
				}
				res, err := db.Exec(sql, qs[i%len(qs)])
				if err != nil {
					t.Error(err)
					return
				}
				for _, r := range res.Trajs {
					var sum float64
					for _, p := range r.Traj.Points {
						sum += p.X
					}
					_ = sum
				}
			}
		}(g)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	first := func() map[int]*geom.Point {
		df, err := db.Table("T")
		if err != nil {
			t.Fatal(err)
		}
		out := map[int]*geom.Point{}
		for _, m := range df.Collect() {
			out[m.ID] = unsafe.SliceData(m.Points)
		}
		return out
	}
	for round := 0; round < 3; round++ {
		id := 900000 + round
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO T VALUES (%d, TRAJECTORY((116.3 39.9), (116.31 39.91), (116.32 39.92)))", id)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec("SELECT * FROM T WHERE DTW(T, ?) <= 0.01", qs[round]); err != nil {
			t.Fatal(err)
		}
		before := first()
		if len(before) != n+round+1 {
			t.Fatalf("round %d: table holds %d members, want %d", round, len(before), n+round+1)
		}
		res, err := db.Exec("SELECT * FROM T WHERE FRECHET(T, ?) <= 0.01", qs[round])
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan == "" || len(res.Trajs) == 0 {
			t.Fatalf("round %d: the FRECHET search found nothing (plan %q)", round, res.Plan)
		}
		for id, p := range first() {
			if before[id] != p {
				t.Fatalf("round %d: the FRECHET build re-pointed member %d", round, id)
			}
		}
	}
}
