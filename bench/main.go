// Command bench is the repository's benchmark: four workloads across the
// in-process engine, a loopback dnet cluster and dita-serve, each reporting the
// same end-to-end metrics (--trace 0) or the per-layer metrics of the layer
// probe (--trace 1), with every answer checked against brute force. See
// README.md beside this file and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	samples map[string]int // sample count behind a metric, for the table on stderr
}

const defaultSeconds = 12

func main() {
	var (
		workload = flag.String("workload", "", "comma-separated workloads to run (default: all four)")
		seed     = flag.Int64("seed", 42, "seed of the request streams")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured seconds per run (read and write phases together)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: layer probe, per-layer metrics and a span file")
		out      = flag.String("out", "out", "directory for span files and the run's snapshot+WAL scratch")
		list     = flag.Bool("list", false, "print every metric with unit, bound and workloads, and exit")
		agree    = flag.Int("agree", 0, "run this many full sets and fail if an end-to-end metric differs by more than its bound")
		history  = flag.Bool("history", false, "append this run's end-to-end metrics to BENCH_HISTORY.jsonl")
	)
	flag.Parse()
	if *list {
		printList(os.Stdout)
		return
	}
	names := allWorkloadNames()
	if *workload != "" {
		names = strings.Split(*workload, ",")
	}
	for _, n := range names {
		if _, ok := workloadByName(n); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", n, strings.Join(allWorkloadNames(), ", "))
			os.Exit(2)
		}
	}
	p := defaultParams(*seconds)
	if *agree > 0 {
		os.Exit(runAgree(names, p, *seed, *out, *agree))
	}
	ok := true
	results := map[string]result{}
	for _, n := range names {
		var res result
		var err error
		if len(names) == 1 {
			res, err = runWorkload(n, p, *seed, *trace == 1, *out, os.Stderr)
			if err == nil {
				printResult(os.Stderr, n, res, *trace == 1)
			}
		} else {
			res, err = runIsolated(n, p, *seed, *trace, *out, os.Stderr)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
			os.Exit(1)
		}
		results[n] = res
		ok = ok && res.Correct
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if *history && *trace == 0 {
		if err := appendHistory(filepath.Join(filepath.Dir(*out), "BENCH_HISTORY.jsonl"), *seed, p, results); err != nil {
			fmt.Fprintf(os.Stderr, "bench: history: %v\n", err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func allWorkloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// runWorkload runs one workload once and returns its result. The error is for
// a run that could not be carried out at all; wrong answers and failed
// operations are counted in the result.
func runWorkload(name string, p params, seed int64, traced bool, outDir string, log io.Writer) (result, error) {
	def, _ := workloadByName(name)
	tmpRoot := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	r := &runner{name: name, def: def, p: p, seed: seed, tmp: tmp, out: log,
		metrics: map[string]float64{}, samples: map[string]int{}}
	if traced {
		r.tracer = newTracer()
		r.p.SetupReps = 1 // the probe needs one deployment; setup_s is an untraced metric
	}
	t0 := time.Now()
	if err := r.run(); err != nil {
		return result{}, err
	}
	specs := endToEnd
	if traced {
		specs = perLayer
		if err := r.tracer.writeFile(filepath.Join(outDir, "trace_"+name+".jsonl")); err != nil {
			return result{}, err
		}
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}, samples: r.samples}
	for _, m := range specs {
		v, ok := r.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if !traced {
				r.fail("metric %s was not measured", m.Name)
			}
			v = 0
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	res.Failed = r.failed
	res.Correct = r.failed == 0
	for _, note := range r.failNotes {
		r.logf("FAILED: %s", note)
	}
	r.logf("run took %.1fs wall", time.Since(t0).Seconds())
	return res, nil
}

// runIsolated runs one workload in a process of its own, as the driver does,
// so that heap_mb never counts what an earlier workload left behind. The child
// prints its table on log; its result line is parsed and returned.
func runIsolated(name string, p params, seed int64, trace int, outDir string, log io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(p.Seconds),
		"-trace", fmt.Sprint(trace), "-out", outDir)
	cmd.Stderr = log
	stdout, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		// No result line: the run could not be carried out.
		return result{}, fmt.Errorf("child run: %v (%v)", runErr, err)
	}
	return res, nil // a child that exits 1 beside a result reports incorrect answers in it
}

func printResult(w io.Writer, name string, res result, traced bool) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d failed_share=%.6f\n", name, res.Correct, res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, m := range specs {
		fmt.Fprintf(w, "  %-28s %16.4f %-6s", m.Name, res.Metrics[m.Name].Value, m.Unit)
		if n, ok := res.samples[m.Name]; ok {
			fmt.Fprintf(w, " n=%d", n)
		}
		fmt.Fprintln(w)
	}
}

func printList(w io.Writer) {
	all := strings.Join(allWorkloadNames(), ",")
	fmt.Fprintf(w, "%-28s %-6s %-7s %-6s %s\n", "metric", "unit", "better", "bound", "workloads")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-28s %-6s %-7s %-6.2f %s\n", m.Name, m.Unit, m.Better, m.Bound, all)
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "%-28s %-6s %-7s %-6s %s (layer probe, --trace 1)\n", m.Name, m.Unit, m.Better, "-", layerWorkloads(m.Name))
	}
}

// layerWorkloads names the workloads that cross the metric's layer; the others
// report 0 for it.
func layerWorkloads(metric string) string {
	switch {
	case strings.HasPrefix(metric, "serve."):
		return wlServeHot + "," + wlServeWrite
	case strings.HasPrefix(metric, "dnet."):
		return wlCluster + "," + wlServeHot + "," + wlServeWrite
	}
	return strings.Join(allWorkloadNames(), ",")
}

// runAgree runs sets full sets of the same code and compares every end-to-end
// metric of every workload between the first set and each later one.
func runAgree(names []string, p params, seed int64, outDir string, sets int) int {
	if sets < 2 {
		sets = 2
	}
	runs := make([]map[string]result, sets)
	for s := range runs {
		runs[s] = map[string]result{}
		for _, n := range names {
			res, err := runIsolated(n, p, seed, 0, outDir, io.Discard)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
				return 1
			}
			runs[s][n] = res
			fmt.Fprintf(os.Stderr, "set %d %s done (correct=%v)\n", s+1, n, res.Correct)
		}
	}
	code := 0
	fmt.Printf("| workload | metric | unit | set 1 | set n | worse by | bound | |\n|---|---|---|---|---|---|---|---|\n")
	for _, n := range names {
		for s := 1; s < sets; s++ {
			for _, m := range endToEnd {
				a, b := runs[0][n].Metrics[m.Name].Value, runs[s][n].Metrics[m.Name].Value
				// The worse of the two directions: either set may be the parent.
				diff := math.Abs(a-b) / math.Min(a, b)
				verdict := "ok"
				if diff > m.Bound {
					verdict, code = "OUTSIDE", 1
				}
				fmt.Printf("| %s | %s | %s | %.4f | %.4f | %.1f%% | %.0f%% | %s |\n", n, m.Name, m.Unit, a, b, diff*100, m.Bound*100, verdict)
			}
			if !runs[s][n].Correct || !runs[0][n].Correct {
				fmt.Printf("| %s | correct | | %v | %v | | | FAILED |\n", n, runs[0][n].Correct, runs[s][n].Correct)
				code = 1
			}
		}
	}
	return code
}

// appendHistory adds one line per invocation: where and what was run, and every
// end-to-end metric of every workload run.
func appendHistory(path string, seed int64, p params, results map[string]result) error {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			commit += "+dirty"
		}
	}
	rec := map[string]any{
		"time": time.Now().UTC().Format(time.RFC3339), "commit": commit, "seed": seed, "seconds": p.Seconds,
		"n": p.N, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"workloads": results,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
