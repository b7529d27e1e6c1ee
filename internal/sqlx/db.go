package sqlx

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"dita/internal/admit"
	"dita/internal/cluster"
	"dita/internal/core"
	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/obs"
	"dita/internal/traj"
)

// ErrOverloaded is returned by Exec/ExecContext when the admission
// gate is saturated (see SetAdmission).
var ErrOverloaded = admit.ErrOverloaded

// DB is the catalog and execution context: named tables, their optional
// trie indexes (one engine per table and measure), and the shared cluster.
type DB struct {
	cl   *cluster.Cluster
	opts core.Options

	// Eps and Delta configure edit-based measures named in queries.
	Eps   float64
	Delta int

	// adm gates SELECT execution, one unit per query; nil admits
	// everything.
	adm *admit.CostGate

	mu     sync.Mutex
	tables map[string]*table
}

type table struct {
	name    string
	data    *traj.Dataset
	indexed bool
	idxName string
	// engines caches one built engine per measure name.
	engines map[string]*core.Engine
}

// NewDB creates a context on the given cluster (a default 4-worker cluster
// when nil) using the engine options as a template for CREATE INDEX.
func NewDB(cl *cluster.Cluster, opts core.Options) *DB {
	if cl == nil {
		cl = cluster.New(cluster.DefaultConfig(4))
	}
	opts.Cluster = cl
	if opts.NG < 1 {
		opts.NG = core.DefaultOptions().NG
	}
	return &DB{cl: cl, opts: opts, Eps: 0.001, Delta: 5, tables: map[string]*table{}}
}

// Cluster returns the execution substrate.
func (db *DB) Cluster() *cluster.Cluster { return db.cl }

// SetAdmission installs (or, with a zero policy, removes) admission
// control over SELECT execution: at most MaxConcurrent queries run at
// once, MaxQueue more wait up to QueueTimeout, and the rest fail fast
// with ErrOverloaded. DDL and EXPLAIN are never gated.
func (db *DB) SetAdmission(p admit.Policy) { db.adm = admit.New(p) }

// Register adds (or replaces) a table backed by the dataset. The table
// adopts d's members as core.NewEngine does: the first engine built over
// them re-points each member's Points at its partition's slab (the same
// values), under the DB's lock. So once registered, d's members — and the
// members a scan over them returns before that build — are read only
// through the DB's statements or between them, and written never. An INSERT
// starts a new generation of fresh headers, so a later build never
// re-points a member that an earlier engine or Result still reads.
func (db *DB) Register(name string, d *traj.Dataset) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tables[strings.ToLower(name)] = &table{name: name, data: d, engines: map[string]*core.Engine{}}
}

func (db *DB) table(name string) (*table, error) {
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("sqlx: unknown table %q", name)
	}
	return t, nil
}

// Result is the outcome of Exec: exactly one of the fields is populated
// depending on the statement kind.
type Result struct {
	// Message reports DDL outcomes.
	Message string
	// Trajs holds search / kNN answers.
	Trajs []core.SearchResult
	// Pairs holds join answers.
	Pairs []core.Pair
	// Tables holds SHOW output rows.
	Tables []string
	// Plan describes the chosen physical plan.
	Plan string
	// Count is the row/pair count for SELECT COUNT(*) queries (and is
	// also filled for ordinary SELECTs).
	Count int
	// Analyze is the EXPLAIN ANALYZE report: the executed plan's pruning
	// funnel and wall-clock time. Nil for every other statement.
	Analyze *AnalyzeReport
}

// AnalyzeReport is the EXPLAIN ANALYZE output: the physical plan that
// actually ran, the pruning funnel it produced, the row count, and the
// wall-clock execution time (admission wait excluded).
type AnalyzeReport struct {
	Plan   string
	Funnel obs.Funnel
	Rows   int
	// Parallelism is the engine's resolved verification fan-out (0 when
	// the plan never touched an engine, e.g. a full scan).
	Parallelism int
	Elapsed     time.Duration
}

// String renders the report in EXPLAIN ANALYZE style, one line of plan
// and one line of funnel.
func (a *AnalyzeReport) String() string {
	return fmt.Sprintf(
		"%s (actual rows=%d time=%s parallelism=%d)\n  funnel: partitions=%d relevant=%d considered=%d trie=%d length=%d coverage=%d verified=%d matched=%d",
		a.Plan, a.Rows, a.Elapsed.Round(time.Microsecond), a.Parallelism,
		a.Funnel.Partitions, a.Funnel.Relevant, a.Funnel.Considered,
		a.Funnel.TrieCands, a.Funnel.AfterLength, a.Funnel.AfterCoverage,
		a.Funnel.Verified, a.Funnel.Matched)
}

// Exec parses and executes one statement. Positional '?' parameters bind
// query trajectories in order.
func (db *DB) Exec(sql string, params ...*traj.T) (*Result, error) {
	return db.ExecContext(context.Background(), sql, params...)
}

// ExecContext is Exec under query-lifecycle control: the context gates
// admission, is checked throughout index probing and verification, and a
// cancellation or deadline aborts the statement with ctx.Err().
func (db *DB) ExecContext(ctx context.Context, sql string, params ...*traj.T) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecuteContext(ctx, st, params...)
}

// Execute runs a parsed statement.
func (db *DB) Execute(st Statement, params ...*traj.T) (*Result, error) {
	return db.ExecuteContext(context.Background(), st, params...)
}

// ExecuteContext runs a parsed statement under the context's lifecycle.
func (db *DB) ExecuteContext(ctx context.Context, st Statement, params ...*traj.T) (*Result, error) {
	switch s := st.(type) {
	case *CreateTable:
		db.Register(s.Name, traj.NewDataset(s.Name, nil))
		return &Result{Message: fmt.Sprintf("table %s created", s.Name)}, nil
	case *Load:
		f, err := os.Open(s.Path)
		if err != nil {
			return nil, fmt.Errorf("sqlx: %w", err)
		}
		defer f.Close()
		d, err := traj.ReadCSV(f, s.Table)
		if err != nil {
			return nil, err
		}
		db.Register(s.Table, d)
		return &Result{Message: fmt.Sprintf("loaded %d trajectories into %s", d.Len(), s.Table)}, nil
	case *CreateIndex:
		db.mu.Lock()
		defer db.mu.Unlock()
		t, err := db.table(s.Table)
		if err != nil {
			return nil, err
		}
		t.indexed = true
		t.idxName = s.Name
		// Engines are built lazily per measure; eagerly build the default
		// (DTW) so CREATE INDEX has the paper's Table 5 cost profile.
		if _, err := db.engineLocked(t, measure.DTW{}); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("trie index %s created on %s", s.Name, s.Table)}, nil
	case *Show:
		db.mu.Lock()
		defer db.mu.Unlock()
		var rows []string
		for _, t := range db.tables {
			switch s.What {
			case "TABLES":
				rows = append(rows, fmt.Sprintf("%s (%d trajectories)", t.name, t.data.Len()))
			case "INDEXES":
				if t.indexed {
					rows = append(rows, fmt.Sprintf("%s ON %s USE TRIE", t.idxName, t.name))
				}
			}
		}
		sort.Strings(rows)
		return &Result{Tables: rows}, nil
	case *Insert:
		db.mu.Lock()
		defer db.mu.Unlock()
		t, err := db.table(s.Table)
		if err != nil {
			return nil, err
		}
		nt := &traj.T{ID: s.ID, Points: s.Traj.Points}
		if err := nt.Validate(); err != nil {
			return nil, err
		}
		for _, existing := range t.data.Trajs {
			if existing.ID == s.ID {
				return nil, fmt.Errorf("sqlx: trajectory id %d already exists in %s", s.ID, t.name)
			}
		}
		// The next generation is fresh headers sharing the points: the engine
		// the next SELECT builds adopts them, while the last generation's
		// engines and the Results they returned keep theirs untouched.
		next := make([]traj.T, len(t.data.Trajs))
		trajs := make([]*traj.T, len(next), len(next)+1)
		for i, tr := range t.data.Trajs {
			next[i] = *tr
			trajs[i] = &next[i]
		}
		t.data = traj.NewDataset(t.data.Name, append(trajs, nt))
		// Built engines no longer reflect the data; rebuild lazily.
		t.engines = map[string]*core.Engine{}
		return &Result{Message: fmt.Sprintf("inserted trajectory %d into %s", s.ID, t.name)}, nil
	case *Drop:
		db.mu.Lock()
		defer db.mu.Unlock()
		t, err := db.table(s.Table)
		if err != nil {
			return nil, err
		}
		if s.IndexOnly {
			t.indexed = false
			t.idxName = ""
			t.engines = map[string]*core.Engine{}
			return &Result{Message: fmt.Sprintf("index dropped from %s", t.name)}, nil
		}
		delete(db.tables, strings.ToLower(s.Table))
		return &Result{Message: fmt.Sprintf("table %s dropped", t.name)}, nil
	case *Select:
		res, err := db.execSelect(ctx, s, params, false, false)
		if err != nil {
			return nil, err
		}
		res.Count = len(res.Trajs) + len(res.Pairs)
		if s.Count {
			// COUNT(*) projects the count only.
			res.Trajs, res.Pairs = nil, nil
		}
		return res, nil
	case *Explain:
		if !s.Analyze {
			return db.execSelect(ctx, s.Stmt, params, true, false)
		}
		// EXPLAIN ANALYZE executes the statement for real — it passes
		// admission like any query — but projects the report, not rows.
		res, err := db.execSelect(ctx, s.Stmt, params, false, true)
		if err != nil {
			return nil, err
		}
		res.Count = len(res.Trajs) + len(res.Pairs)
		res.Trajs, res.Pairs = nil, nil
		return res, nil
	}
	return nil, fmt.Errorf("sqlx: unsupported statement %T", st)
}

// measureFor resolves a measure name using the context's Eps/Delta.
func (db *DB) measureFor(name string) (measure.Measure, error) {
	return measure.ByName(name, db.Eps, db.Delta)
}

// engineLocked returns (building if needed) the table's engine for the
// measure. Caller holds db.mu.
func (db *DB) engineLocked(t *table, m measure.Measure) (*core.Engine, error) {
	if e, ok := t.engines[m.Name()]; ok {
		return e, nil
	}
	opts := db.opts
	opts.Measure = m
	opts.Cluster = db.cl
	e, err := core.NewEngine(t.data, opts)
	if err != nil {
		return nil, err
	}
	t.engines[m.Name()] = e
	return e, nil
}

// execSelect plans and runs one SELECT. The catalog lock (db.mu) is held
// only while resolving tables and engines; the query itself — trie
// probing, verification, joins — runs outside it, so admission control
// actually bounds concurrent query *work* rather than serializing it
// behind a mutex. Engines are immutable once built (an Insert clears the
// cache instead of mutating them), so running one unlocked is safe.
func (db *DB) execSelect(ctx context.Context, s *Select, params []*traj.T, planOnly, analyze bool) (*Result, error) {
	// EXPLAIN never executes anything; only real queries pass admission.
	if !planOnly {
		release, err := db.adm.Acquire(ctx, 1)
		if err != nil {
			return nil, err
		}
		defer release()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// EXPLAIN ANALYZE: time execution (after admission, so queue wait is
	// not charged to the plan) and attach the funnel each branch fills.
	var aStart time.Time
	if analyze {
		aStart = time.Now()
	}
	// verifyPar is filled by the branches that resolve an engine, so the
	// ANALYZE report shows the fan-out the executed plan actually used.
	verifyPar := 0
	report := func(res *Result, f obs.Funnel) *Result {
		if analyze {
			res.Analyze = &AnalyzeReport{
				Plan:        res.Plan,
				Funnel:      f,
				Rows:        len(res.Trajs) + len(res.Pairs),
				Parallelism: verifyPar,
				Elapsed:     time.Since(aStart),
			}
		}
		return res
	}
	db.mu.Lock()
	locked := true
	unlock := func() {
		if locked {
			locked = false
			db.mu.Unlock()
		}
	}
	defer unlock()
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	nextParam := 0
	bind := func(lit *TrajLiteral) (*traj.T, error) {
		if lit == nil {
			return nil, fmt.Errorf("sqlx: missing query trajectory")
		}
		if lit.Param {
			if nextParam >= len(params) {
				return nil, fmt.Errorf("sqlx: not enough parameters: need %d", nextParam+1)
			}
			q := params[nextParam]
			nextParam++
			return q, nil
		}
		return &traj.T{ID: -1, Points: lit.Points}, nil
	}

	// kNN join: TRA-KNN-JOIN Q USING f LIMIT k.
	if s.KNNJoin {
		t2, err := db.table(s.JoinTable)
		if err != nil {
			return nil, err
		}
		m, err := db.measureFor(s.OrderBy.Measure)
		if err != nil {
			return nil, err
		}
		plan := fmt.Sprintf("KNNIndexJoin(%s, %s, k=%d, %s)", t.name, t2.name, s.Limit, m.Name())
		if planOnly {
			return &Result{Plan: plan}, nil
		}
		e1, err := db.engineLocked(t, m)
		if err != nil {
			return nil, err
		}
		e2, err := db.engineLocked(t2, m)
		if err != nil {
			return nil, err
		}
		leftTrajs := append([]*traj.T(nil), t.data.Trajs...)
		verifyPar = e1.VerifyParallelism()
		unlock()
		var js core.JoinStats
		nn, err := e1.KNNJoinContext(ctx, e2, s.Limit, &js)
		if err != nil {
			return nil, err
		}
		// Flatten to pairs: (left id, neighbor) in left-id order.
		ids := make([]int, 0, len(nn))
		for id := range nn {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		var pairs []core.Pair
		left := make(map[int]*traj.T, len(leftTrajs))
		for _, tr := range leftTrajs {
			left[tr.ID] = tr
		}
		for _, id := range ids {
			for _, r := range nn[id] {
				pairs = append(pairs, core.Pair{T: left[id], Q: r.Traj, Distance: r.Distance})
			}
		}
		// The per-probe pruning funnels accumulate into the join stats;
		// EXPLAIN ANALYZE reports their sum over every left trajectory.
		return report(&Result{Pairs: pairs, Plan: plan}, js.Funnel), nil
	}

	// kNN: ORDER BY f(T, Q) LIMIT k.
	if s.OrderBy != nil {
		m, err := db.measureFor(s.OrderBy.Measure)
		if err != nil {
			return nil, err
		}
		plan := fmt.Sprintf("KNNIndexSearch(%s, k=%d, %s)", t.name, s.Limit, m.Name())
		if planOnly {
			return &Result{Plan: plan}, nil
		}
		q, err := bind(s.OrderBy.RightTraj)
		if err != nil {
			return nil, err
		}
		e, err := db.engineLocked(t, m)
		if err != nil {
			return nil, err
		}
		verifyPar = e.VerifyParallelism()
		unlock()
		var st core.SearchStats
		hits, err := e.SearchKNNContext(ctx, q, s.Limit, &st)
		if err != nil {
			return nil, err
		}
		return report(&Result{Trajs: hits, Plan: plan}, st.Funnel), nil
	}

	// Join.
	if s.JoinTable != "" {
		if s.Where == nil {
			return nil, fmt.Errorf("sqlx: TRA-JOIN requires an ON predicate")
		}
		t2, err := db.table(s.JoinTable)
		if err != nil {
			return nil, err
		}
		m, err := db.measureFor(s.Where.Measure)
		if err != nil {
			return nil, err
		}
		plan := fmt.Sprintf("TrieIndexJoin(%s, %s, τ=%g, %s)", t.name, t2.name, s.Where.Tau, m.Name())
		if planOnly {
			return &Result{Plan: plan}, nil
		}
		// The paper's join "first builds indexes for them" when missing.
		e1, err := db.engineLocked(t, m)
		if err != nil {
			return nil, err
		}
		e2, err := db.engineLocked(t2, m)
		if err != nil {
			return nil, err
		}
		verifyPar = e1.VerifyParallelism()
		unlock()
		var js core.JoinStats
		pairs, rep, err := e1.JoinPartialContext(ctx, e2, s.Where.Tau, core.DefaultJoinOptions(), &js)
		if err == nil {
			err = rep.Err("join")
		}
		if err != nil {
			return nil, err
		}
		return report(&Result{Pairs: pairs, Plan: plan}, js.Funnel), nil
	}

	// Plain scan.
	if s.Where == nil {
		plan := fmt.Sprintf("FullScan(%s)", t.name)
		if planOnly {
			return &Result{Plan: plan}, nil
		}
		out := make([]core.SearchResult, len(t.data.Trajs))
		for i, tr := range t.data.Trajs {
			out[i] = core.SearchResult{Traj: tr}
		}
		unlock()
		// A bare scan retrieves every row: the funnel is flat.
		return report(&Result{Trajs: out, Plan: plan}, flatFunnel(len(out), len(out))), nil
	}

	// Similarity search: index scan when a trie index exists, full scan
	// otherwise — the planner's cost-based physical choice.
	m, err := db.measureFor(s.Where.Measure)
	if err != nil {
		return nil, err
	}
	if planOnly {
		plan := fmt.Sprintf("FullScanFilter(%s, τ=%g, %s)", t.name, s.Where.Tau, m.Name())
		if t.indexed {
			plan = fmt.Sprintf("TrieIndexSearch(%s, τ=%g, %s)", t.name, s.Where.Tau, m.Name())
		}
		return &Result{Plan: plan}, nil
	}
	q, err := bind(s.Where.RightTraj)
	if err != nil {
		return nil, err
	}
	if q == nil || len(q.Points) == 0 {
		return nil, fmt.Errorf("sqlx: empty query trajectory")
	}
	if t.indexed {
		plan := fmt.Sprintf("TrieIndexSearch(%s, τ=%g, %s)", t.name, s.Where.Tau, m.Name())
		e, err := db.engineLocked(t, m)
		if err != nil {
			return nil, err
		}
		verifyPar = e.VerifyParallelism()
		unlock()
		var st core.SearchStats
		trajs, rep, err := e.SearchPartialContext(ctx, q, s.Where.Tau, &st)
		if err == nil {
			err = rep.Err("search")
		}
		if err != nil {
			return nil, err
		}
		return report(&Result{Trajs: trajs, Plan: plan}, st.Funnel), nil
	}
	plan := fmt.Sprintf("FullScanFilter(%s, τ=%g, %s)", t.name, s.Where.Tau, m.Name())
	// The points are read under the lock: a build that adopts these members
	// re-points their Points, but never writes the arrays read here.
	trajs := append([]*traj.T(nil), t.data.Trajs...)
	pts := make([][]geom.Point, len(trajs))
	for i, tr := range trajs {
		pts[i] = tr.Points
	}
	unlock()
	out, err := db.fullScan(ctx, trajs, pts, m, q, s.Where.Tau)
	if err != nil {
		return nil, err
	}
	// The fallback scan exact-verifies every trajectory; that is exactly
	// what a flat funnel says.
	return report(&Result{Trajs: out, Plan: plan}, flatFunnel(len(trajs), len(out))), nil
}

// flatFunnel describes an unpruned path: n candidates enter, none are
// filtered before verification, and matched of them survive.
func flatFunnel(n, matched int) obs.Funnel {
	c := int64(n)
	return obs.Funnel{
		Considered: c, TrieCands: c, AfterLength: c, AfterCoverage: c,
		Verified: c, Matched: int64(matched),
	}
}

// fullScan verifies every trajectory in parallel across the workers,
// checking the context before each threshold-distance computation.
func (db *DB) fullScan(ctx context.Context, trajs []*traj.T, pts [][]geom.Point, m measure.Measure, q *traj.T, tau float64) ([]core.SearchResult, error) {
	W := db.cl.Workers()
	results := make([][]core.SearchResult, W)
	var tasks []cluster.Task
	for w := 0; w < W; w++ {
		w := w
		tasks = append(tasks, cluster.Task{Worker: w, Fn: func() {
			for i := w; i < len(trajs); i += W {
				if ctx.Err() != nil {
					return
				}
				if d, ok := m.DistanceThreshold(pts[i], q.Points, tau); ok {
					results[w] = append(results[w], core.SearchResult{Traj: trajs[i], Distance: d})
				}
			}
		}})
	}
	if err := db.cl.RunContext(ctx, tasks); err != nil {
		return nil, err
	}
	var out []core.SearchResult
	for _, r := range results {
		out = append(out, r...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Traj.ID < out[b].Traj.ID })
	return out, nil
}
