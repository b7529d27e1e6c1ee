package sqlx

import (
	"context"
	"fmt"

	"dita/internal/core"
	"dita/internal/traj"
)

// DataFrame is the procedural companion to the SQL dialect (the paper's
// DataFrame API, Section 3): a handle on a registered table supporting
// trajectory similarity operators. All operations share the DB's engines,
// so an index built through SQL benefits DataFrame calls and vice versa.
type DataFrame struct {
	db *DB
	t  *table
}

// Table returns a DataFrame over a registered table.
func (db *DB) Table(name string) (*DataFrame, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.table(name)
	if err != nil {
		return nil, err
	}
	return &DataFrame{db: db, t: t}, nil
}

// Name returns the underlying table name.
func (df *DataFrame) Name() string { return df.t.name }

// Count returns the number of trajectories.
func (df *DataFrame) Count() int { return df.t.data.Len() }

// Collect returns the table's trajectories.
func (df *DataFrame) Collect() []*traj.T { return df.t.data.Trajs }

// CreateTrieIndex builds the DITA index (CREATE INDEX ... USE TRIE).
func (df *DataFrame) CreateTrieIndex() error {
	_, err := df.db.Execute(&CreateIndex{Name: df.t.name + "_trie", Table: df.t.name})
	return err
}

// SimilaritySearch returns trajectories within tau of q under the named
// measure.
func (df *DataFrame) SimilaritySearch(q *traj.T, measureName string, tau float64) ([]core.SearchResult, error) {
	m, err := df.db.measureFor(measureName)
	if err != nil {
		return nil, err
	}
	df.db.mu.Lock()
	defer df.db.mu.Unlock()
	e, err := df.db.engineLocked(df.t, m)
	if err != nil {
		return nil, err
	}
	res, rep, err := e.SearchPartialContext(context.Background(), q, tau, nil)
	if err == nil {
		err = rep.Err("search")
	}
	return res, err
}

// SimilarityJoin returns pairs (t, q) with t from df, q from other, within
// tau under the named measure.
func (df *DataFrame) SimilarityJoin(other *DataFrame, measureName string, tau float64) ([]core.Pair, error) {
	if df.db != other.db {
		return nil, fmt.Errorf("sqlx: cannot join tables from different contexts")
	}
	m, err := df.db.measureFor(measureName)
	if err != nil {
		return nil, err
	}
	df.db.mu.Lock()
	defer df.db.mu.Unlock()
	e1, err := df.db.engineLocked(df.t, m)
	if err != nil {
		return nil, err
	}
	e2, err := df.db.engineLocked(other.t, m)
	if err != nil {
		return nil, err
	}
	pairs, rep, err := e1.JoinPartialContext(context.Background(), e2, tau, core.DefaultJoinOptions(), nil)
	if err == nil {
		err = rep.Err("join")
	}
	return pairs, err
}

// KNNJoin returns, for every trajectory of df, its k nearest neighbors in
// other under the named measure.
func (df *DataFrame) KNNJoin(other *DataFrame, measureName string, k int) (map[int][]core.SearchResult, error) {
	if df.db != other.db {
		return nil, fmt.Errorf("sqlx: cannot join tables from different contexts")
	}
	m, err := df.db.measureFor(measureName)
	if err != nil {
		return nil, err
	}
	df.db.mu.Lock()
	defer df.db.mu.Unlock()
	e1, err := df.db.engineLocked(df.t, m)
	if err != nil {
		return nil, err
	}
	e2, err := df.db.engineLocked(other.t, m)
	if err != nil {
		return nil, err
	}
	return e1.KNNJoinContext(context.Background(), e2, k, nil)
}

// KNN returns the k nearest trajectories to q under the named measure.
func (df *DataFrame) KNN(q *traj.T, measureName string, k int) ([]core.SearchResult, error) {
	m, err := df.db.measureFor(measureName)
	if err != nil {
		return nil, err
	}
	df.db.mu.Lock()
	defer df.db.mu.Unlock()
	e, err := df.db.engineLocked(df.t, m)
	if err != nil {
		return nil, err
	}
	return e.SearchKNNContext(context.Background(), q, k, nil)
}
