// Package exp reproduces the paper's evaluation (Section 7 and Appendices
// B–C): every figure and table has a driver that regenerates its rows — the
// same series, the same sweeps — on the synthetic stand-in datasets at a
// configurable scale. cmd/ditabench runs them by id; root-level
// testing.B benchmarks wrap reduced sweeps.
//
// Times reported for distributed runs are the cluster substrate's
// *simulated* makespans (per-worker virtual clocks plus modelled Gigabit
// transfers), which is what makes worker counts beyond the host's physical
// cores meaningful; index-build times are wall clock.
package exp

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dita/internal/cluster"
	"dita/internal/core"
	"dita/internal/gen"
	"dita/internal/measure"
	"dita/internal/traj"
	"dita/internal/trie"
)

// Config scales the experiments. Zero fields take defaults.
type Config struct {
	// NBeijing, NChengdu, NOSM are dataset cardinalities at Scale 1.0.
	NBeijing, NChengdu, NOSM int
	// NJoin is the self-join dataset cardinality at Scale 1.0.
	NJoin int
	// Queries is the search-workload size (the paper uses 1,000).
	Queries int
	// Workers is the default simulated core count.
	Workers int
	// Scale multiplies all cardinalities (quick runs: 0.1).
	Scale float64
	// Seed drives all generation.
	Seed int64
}

// DefaultConfig returns the laptop-scale defaults documented in
// EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{
		NBeijing: 12000,
		NChengdu: 12000,
		NOSM:     4000,
		NJoin:    2500,
		Queries:  100,
		Workers:  8,
		Scale:    1.0,
		Seed:     42,
	}
}

func (c Config) sanitized() Config {
	d := DefaultConfig()
	if c.NBeijing <= 0 {
		c.NBeijing = d.NBeijing
	}
	if c.NChengdu <= 0 {
		c.NChengdu = d.NChengdu
	}
	if c.NOSM <= 0 {
		c.NOSM = d.NOSM
	}
	if c.NJoin <= 0 {
		c.NJoin = d.NJoin
	}
	if c.Queries <= 0 {
		c.Queries = d.Queries
	}
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

func (c Config) n(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 50 {
		n = 50
	}
	return n
}

// Taus is the paper's threshold sweep (Table 3); 0.001 is roughly 111 m.
var Taus = []float64{0.001, 0.002, 0.003, 0.004, 0.005}

// DefaultTau is the sweep midpoint used by the ablations.
const DefaultTau = 0.003

// Table is one reproduced figure/table: column headers and formatted rows.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, v := range r {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, v := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], v)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// TSV renders the table as tab-separated values.
func (t *Table) TSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, "\t"))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner is an experiment driver.
type Runner func(cfg Config) (*Table, error)

var registry = map[string]struct {
	title string
	run   Runner
}{}

func register(id, title string, run Runner) {
	registry[id] = struct {
		title string
		run   Runner
	}{title, run}
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns an experiment's description.
func Title(id string) string { return registry[id].title }

// Run executes one experiment by id.
func Run(id string, cfg Config) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return r.run(cfg.sanitized())
}

// --- shared builders -------------------------------------------------------

// dataset materializes one of the three preset datasets at the config's
// scale. kind is "beijing", "chengdu" or "osm".
func (c Config) dataset(kind string) *traj.Dataset {
	switch kind {
	case "beijing":
		return gen.Generate(gen.BeijingLike(c.n(c.NBeijing), c.Seed))
	case "chengdu":
		return gen.Generate(gen.ChengduLike(c.n(c.NChengdu), c.Seed+1))
	case "osm":
		return gen.Generate(gen.OSMLike(c.n(c.NOSM), c.Seed+2))
	}
	panic("exp: unknown dataset kind " + kind)
}

// expCluster builds the experiments' substrate: Gigabit bandwidth with a
// per-message latency scaled down with the datasets. The paper's testbed
// pairs ~10 GB datasets with 0.1 ms switch latency; our datasets are about
// three orders of magnitude smaller, so the latency is scaled to keep the
// compute-to-network ratio (and therefore the relative orderings)
// comparable.
func expCluster(workers int) *cluster.Cluster {
	cfg := cluster.DefaultConfig(workers)
	cfg.LatencyPerMessage = 2 * time.Microsecond
	return cluster.New(cfg)
}

// engineOpts returns DITA engine options scaled for the dataset size.
func engineOpts(m measure.Measure, workers int) core.Options {
	o := core.DefaultOptions()
	o.NG = 6
	o.Measure = m
	o.Trie = trie.DefaultConfig()
	o.Trie.NLAlign = 16
	o.Trie.NLPivot = 4
	// The paper stops splitting trie nodes at 16 trajectories on datasets
	// of 10M+ (partitions of thousands); our partitions hold ~50-300, so
	// the equivalent depth needs a smaller cut-off or the pivot levels
	// never engage.
	o.Trie.MinNode = 2
	o.Cluster = expCluster(workers)
	return o
}

// measureReps is the number of repetitions per timing; the minimum is
// reported, which suppresses GC and scheduler noise on small simulated
// workloads (standard micro-benchmark practice).
const measureReps = 3

// minElapsed runs the workload measureReps times and returns the smallest
// simulated makespan.
func minElapsed(cl *cluster.Cluster, run func()) time.Duration {
	best := time.Duration(1<<62 - 1)
	for r := 0; r < measureReps; r++ {
		cl.Reset()
		run()
		if e := cl.Elapsed(); e < best {
			best = e
		}
	}
	return best
}

// msPerQuery runs the batch and returns simulated elapsed milliseconds per
// query (minimum over repetitions).
func msPerQuery(cl *cluster.Cluster, n int, run func()) float64 {
	if n == 0 {
		return 0
	}
	return float64(minElapsed(cl, run).Microseconds()) / 1000 / float64(n)
}

// fmtMS formats milliseconds with adaptive precision.
func fmtMS(ms float64) string {
	switch {
	case ms >= 100:
		return fmt.Sprintf("%.0f", ms)
	case ms >= 1:
		return fmt.Sprintf("%.2f", ms)
	default:
		return fmt.Sprintf("%.4f", ms)
	}
}

// fmtSec formats a duration in seconds.
func fmtSec(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

// fmtBytes renders a byte count as MB with two decimals.
func fmtBytes(b int) string { return fmt.Sprintf("%.2f", float64(b)/1e6) }

// fmtKB renders a byte count as KB with one decimal (for the small global
// index).
func fmtKB(b int) string { return fmt.Sprintf("%.1f", float64(b)/1e3) }
