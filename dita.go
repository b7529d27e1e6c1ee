// Package dita is a distributed in-memory trajectory analytics library — a
// from-scratch Go reproduction of "DITA: Distributed In-Memory Trajectory
// Analytics" (Shang, Li, Bao; SIGMOD 2018).
//
// DITA answers trajectory similarity search and join queries under DTW,
// Fréchet, EDR, LCSS, ERP and Hausdorff distances, at scale, via:
//
//   - first/last-point STR partitioning with a global R-tree index and a
//     per-partition pivot-point trie index,
//   - a filter–verification pipeline (pivot lower bounds, MBR-coverage
//     filtering, band-limited threshold DTW),
//   - a cost-based distributed join with greedy bi-graph orientation and
//     division-based load balancing,
//   - SQL and DataFrame front ends.
//
// Quick start:
//
//	data := dita.Generate(dita.BeijingLike(10000, 1))
//	eng, _ := dita.NewEngine(data, dita.DefaultOptions())
//	results := eng.Search(data.Trajs[0], 0.005, nil)
//	pairs := eng.Join(eng, 0.005, dita.DefaultJoinOptions(), nil) // or another engine
//
// or through SQL:
//
//	db := dita.NewDB(nil, dita.DefaultOptions())
//	db.Register("trips", data)
//	db.Exec("CREATE INDEX TrieIndex ON trips USE TRIE")
//	res, _ := db.Exec("SELECT * FROM trips WHERE DTW(trips, ?) <= 0.005", q)
//
// The public API re-exports the implementation packages; see DESIGN.md for
// the module map and EXPERIMENTS.md for the reproduced evaluation.
package dita

import (
	"io"

	"dita/internal/admit"
	"dita/internal/cluster"
	"dita/internal/core"
	"dita/internal/dnet"
	"dita/internal/gen"
	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/mining"
	"dita/internal/pivot"
	"dita/internal/roadnet"
	"dita/internal/simplify"
	"dita/internal/sqlx"
	"dita/internal/traj"
	"dita/internal/trie"
)

// Geometric and data-model types.
type (
	// Point is a 2-dimensional location.
	Point = geom.Point
	// MBR is a minimum bounding rectangle.
	MBR = geom.MBR
	// Trajectory is an identified point sequence.
	Trajectory = traj.T
	// Dataset is an in-memory trajectory collection.
	Dataset = traj.Dataset
)

// Engine types.
type (
	// Engine is a built DITA index serving searches and joins.
	Engine = core.Engine
	// Options configures engine construction.
	Options = core.Options
	// JoinOptions tunes the distributed join.
	JoinOptions = core.JoinOptions
	// JoinStats reports join cost counters.
	JoinStats = core.JoinStats
	// SearchStats reports the search filter funnel.
	SearchStats = core.SearchStats
	// SearchResult is one search answer.
	SearchResult = core.SearchResult
	// Pair is one join answer.
	Pair = core.Pair
	// SkipReport lists partitions a partial-tolerant query skipped.
	SkipReport = core.SkipReport
	// SkippedPartition attributes one skipped partition to its error.
	SkippedPartition = core.SkippedPartition
	// TrieConfig configures the local index.
	TrieConfig = trie.Config
	// Cluster is the simulated distributed substrate.
	Cluster = cluster.Cluster
	// ClusterConfig parameterizes the substrate.
	ClusterConfig = cluster.Config
)

// Measures.
type (
	// Measure is a trajectory distance function.
	Measure = measure.Measure
	// DTW is Dynamic Time Warping (the default measure).
	DTW = measure.DTW
	// Frechet is the discrete Fréchet distance.
	Frechet = measure.Frechet
	// EDR is Edit Distance on Real sequence.
	EDR = measure.EDR
	// LCSS is the windowed longest-common-subsequence distance.
	LCSS = measure.LCSS
	// ERP is Edit distance with Real Penalty.
	ERP = measure.ERP
	// Hausdorff is the symmetric Hausdorff set distance.
	Hausdorff = measure.Hausdorff
)

// Front end.
type (
	// DB is the SQL catalog and execution context.
	DB = sqlx.DB
	// DataFrame is the procedural query API.
	DataFrame = sqlx.DataFrame
	// SQLResult is the outcome of a SQL statement.
	SQLResult = sqlx.Result
)

// AdmissionPolicy bounds concurrent queries on a DB (DB.SetAdmission) or
// a network-mode coordinator (NetConfig.Admission): MaxConcurrent run,
// MaxQueue wait up to QueueTimeout for a slot, the rest fail fast with
// ErrOverloaded.
type AdmissionPolicy = admit.Policy

// ErrOverloaded is returned (wrapped — test with errors.Is) when
// admission control rejects a query because the system is at its
// concurrency limit and the queue is full or the queue wait timed out.
var ErrOverloaded = admit.ErrOverloaded

// Data generation.
type (
	// GenConfig parameterizes synthetic trajectory generation.
	GenConfig = gen.Config
)

// Network mode: DITA as a real multi-process distributed system (workers
// as TCP servers via stdlib net/rpc, coordinator-routed queries,
// worker-to-worker join shuffles). See cmd/dita-worker and cmd/dita-net.
type (
	// NetWorker is one network-mode node.
	NetWorker = dnet.Worker
	// NetCoordinator partitions datasets over workers and routes queries.
	NetCoordinator = dnet.Coordinator
	// NetConfig parameterizes a network-mode deployment.
	NetConfig = dnet.Config
	// NetSearchHit is one network-mode search answer.
	NetSearchHit = dnet.SearchHit
	// NetPair is one network-mode join answer.
	NetPair = dnet.WirePair
)

// Road networks (the paper's stated future-work extension).
type (
	// RoadNetwork is a weighted road graph with map matching and
	// network-constrained DTW.
	RoadNetwork = roadnet.Network
	// RoadNodeID identifies a road-network node.
	RoadNodeID = roadnet.NodeID
)

// NewRoadNetwork creates an empty road network.
func NewRoadNetwork() *RoadNetwork { return roadnet.New() }

// GridRoadNetwork builds a rows×cols street grid over the extent.
func GridRoadNetwork(extent MBR, rows, cols int) *RoadNetwork {
	return roadnet.Grid(extent, rows, cols)
}

// Mining: trajectory analytics built on the similarity primitives.
type (
	// MiningCluster is one similarity cluster.
	MiningCluster = mining.Cluster
	// Route is one frequent route.
	Route = mining.Route
	// MiningOptions tunes the mining operations.
	MiningOptions = mining.Options
)

// ClusterTrajectories groups the engine's dataset into similarity
// clusters (medoid + members), by descending support.
func ClusterTrajectories(e *Engine, opts MiningOptions) []*MiningCluster {
	return mining.Clusters(e, opts)
}

// FrequentRoutes extracts frequently driven routes (connected components
// of the τ-similarity graph) by descending support.
func FrequentRoutes(e *Engine, opts MiningOptions) []Route { return mining.FrequentRoutes(e, opts) }

// Outliers returns trajectories with fewer than minNeighbors τ-neighbors.
func Outliers(e *Engine, tau float64, minNeighbors int) []*Trajectory {
	return mining.Outliers(e, tau, minNeighbors)
}

// NewNetWorker creates an unstarted network-mode worker; call Serve.
func NewNetWorker() *NetWorker { return dnet.NewWorker() }

// ConnectNet dials network-mode workers and returns a coordinator.
func ConnectNet(addrs []string, cfg NetConfig) (*NetCoordinator, error) {
	return dnet.Connect(addrs, cfg)
}

// DefaultNetConfig returns network-mode defaults (NG=4, DTW).
func DefaultNetConfig() NetConfig { return dnet.DefaultNetConfig() }

// Pivot strategies.
const (
	// PivotNeighbor selects pivots by neighbor distance (the default).
	PivotNeighbor = pivot.Neighbor
	// PivotInflection selects pivots by turning angle.
	PivotInflection = pivot.Inflection
	// PivotFirstLast selects pivots by distance from the endpoints.
	PivotFirstLast = pivot.FirstLast
)

// NewEngine partitions and indexes a dataset (CREATE INDEX ... USE TRIE).
// The engine adopts d's members: it moves each partition's points into one
// slab and re-points the members' Points at it, with the same values. Do
// not read the members concurrently with NewEngine, nor write them after.
func NewEngine(d *Dataset, opts Options) (*Engine, error) { return core.NewEngine(d, opts) }

// DefaultOptions returns laptop-scale engine defaults (NG=8, DTW).
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultJoinOptions mirrors the paper's join settings (5% sampling, 0.98
// division quantile).
func DefaultJoinOptions() JoinOptions { return core.DefaultJoinOptions() }

// NewCluster creates a simulated cluster with the given worker count and a
// Gigabit-Ethernet network model.
func NewCluster(workers int) *Cluster { return cluster.New(cluster.DefaultConfig(workers)) }

// NewDB creates a SQL/DataFrame context.
func NewDB(cl *Cluster, opts Options) *DB { return sqlx.NewDB(cl, opts) }

// ParseSQL parses one statement of the extended SQL dialect.
func ParseSQL(sql string) (sqlx.Statement, error) { return sqlx.Parse(sql) }

// MeasureByName resolves a measure by name ("DTW", "FRECHET", "EDR",
// "LCSS", "ERP", "HAUSDORFF"); epsilon and delta configure the edit-based
// measures.
func MeasureByName(name string, epsilon float64, delta int) (Measure, error) {
	return measure.ByName(name, epsilon, delta)
}

// Generate synthesizes a trajectory dataset.
func Generate(cfg GenConfig) *Dataset { return gen.Generate(cfg) }

// BeijingLike mimics the paper's Beijing taxi dataset at n trajectories.
func BeijingLike(n int, seed int64) GenConfig { return gen.BeijingLike(n, seed) }

// ChengduLike mimics the paper's Chengdu taxi dataset.
func ChengduLike(n int, seed int64) GenConfig { return gen.ChengduLike(n, seed) }

// OSMLike mimics the paper's OSM-derived traces.
func OSMLike(n int, seed int64) GenConfig { return gen.OSMLike(n, seed) }

// Queries samples k query trajectories from a dataset.
func Queries(d *Dataset, k int, seed int64) []*Trajectory { return gen.Queries(d, k, seed) }

// Simplify returns a copy of the dataset with every trajectory simplified
// by Douglas–Peucker with error bound eps (useful preprocessing before
// indexing raw GPS traces).
func Simplify(d *Dataset, eps float64) *Dataset { return simplify.Dataset(d, eps) }

// Resample returns n points evenly spaced by arc length along the
// trajectory's polyline.
func Resample(pts []Point, n int) []Point { return simplify.Resample(pts, n) }

// WriteCSV writes a dataset in the one-line-per-trajectory CSV format
// (id,x1,y1,x2,y2,...).
func WriteCSV(w io.Writer, d *Dataset) error { return traj.WriteCSV(w, d) }

// ReadCSV parses the CSV interchange format.
func ReadCSV(r io.Reader, name string) (*Dataset, error) { return traj.ReadCSV(r, name) }
