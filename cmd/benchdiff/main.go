// Command benchdiff measures one commit against another with the
// repository benchmark, the way a performance claim has to be shown
// (EXPERIMENTS.md, BENCH_HISTORY.jsonl): it extracts both refs into their
// own trees under .bench_build/diff/ (git archive — no worktree is
// registered and the working tree is not touched), runs N pairs of
// `bash bench/run.sh --workload W --seed S --seconds T --trace 0`, one
// workload at a time with the order of the two sides alternating from pair
// to pair and both sides of a pair on one seed, and prints, per workload and
// end-to-end metric, each side's median and quartiles, how many pairs B won
// and whether B's median is inside the metric's bound. The same cells go to
// .bench_build/diff/summary.json in the shape of a BENCH_HISTORY.jsonl
// line's "workloads" object. `make bench-diff A=<ref> B=<ref>` runs it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is the JSON object a benchmark run prints as its last line.
type run struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// cell is one (workload, metric) comparison: A is the parent, B the change.
type cell struct {
	Parent  float64    `json:"parent"`
	ParentQ [2]float64 `json:"parent_q"`
	Change  float64    `json:"change"`
	ChangeQ [2]float64 `json:"change_q"`
	Won     int        `json:"won"`
	Ties    int        `json:"ties"`
	Pairs   int        `json:"pairs"`
}

func main() {
	var (
		a         = flag.String("a", "", "parent ref")
		b         = flag.String("b", "", "change ref")
		n         = flag.Int("n", 10, "pairs of runs per workload")
		seed      = flag.Int64("seed", 501, "seed of the first pair; pair i runs both sides at seed+i")
		workloads = flag.String("workload", "", "comma-separated workloads (default: all in BENCHMARK.json)")
		dir       = flag.String("dir", ".bench_build/diff", "where the two trees, the raw runs and summary.json go")
	)
	flag.Parse()
	if *a == "" || *b == "" || *n < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -a <parent ref> -b <change ref> [-n pairs] [-seed s] [-workload w,...]")
		os.Exit(2)
	}
	if err := diff(*a, *b, *n, *seed, *workloads, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func diff(a, b string, n int, seed int64, workloads, dir string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if workloads != "" {
		names = strings.Split(workloads, ",")
	}
	trees := map[string]string{}
	for side, ref := range map[string]string{"a": a, "b": b} {
		tree, err := extract(ref, filepath.Join(dir, side))
		if err != nil {
			return err
		}
		trees[side] = tree
	}
	cells := map[string]map[string]*cell{}
	for _, w := range names {
		vals := map[string][]run{}
		for i := 0; i < n; i++ {
			order := []string{"a", "b"}
			if i%2 == 1 {
				order = []string{"b", "a"}
			}
			for _, side := range order {
				r, err := bench(trees[side], w, seed+int64(i), sp.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s, pair %d, side %s: %w", w, i, side, err)
				}
				vals[side] = append(vals[side], r)
				fmt.Fprintf(os.Stderr, "%s pair %d/%d side %s done\n", w, i+1, n, side)
			}
		}
		cells[w] = map[string]*cell{}
		for _, m := range sp.EndToEnd {
			cells[w][m.Name] = compare(m, vals["a"], vals["b"])
		}
	}
	fmt.Printf("%s (parent) against %s (change): %d pairs a workload, seeds %d-%d, --seconds %g --trace 0\n",
		a, b, n, seed, seed+int64(n)-1, sp.RunSeconds)
	for _, w := range names {
		fmt.Printf("\n%s\n%-16s %12s %25s %12s %25s %8s %6s  %s\n", w, "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "delta", "won", "")
		for _, m := range sp.EndToEnd {
			c := cells[w][m.Name]
			delta := 0.0
			if c.Parent != 0 {
				delta = (c.Change - c.Parent) / c.Parent
			}
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			verdict := ""
			if worse > m.Bound {
				verdict = fmt.Sprintf("WORSE than the bound (%.0f%%)", 100*m.Bound)
			}
			fmt.Printf("%-16s %12.6g %25s %12.6g %25s %+7.1f%% %3d/%-2d  %s\n", m.Name,
				c.Parent, fmt.Sprintf("[%.6g, %.6g]", c.ParentQ[0], c.ParentQ[1]),
				c.Change, fmt.Sprintf("[%.6g, %.6g]", c.ChangeQ[0], c.ChangeQ[1]),
				100*delta, c.Won, c.Pairs, verdict)
		}
	}
	out, err := json.Marshal(cells)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "summary.json"), append(out, '\n'), 0o644)
}

// extract unpacks ref's tree into dst, replacing what was there.
func extract(ref, dst string) (string, error) {
	if err := os.RemoveAll(dst); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return "", err
	}
	archive := exec.Command("git", "archive", "--format=tar", ref)
	untar := exec.Command("tar", "-x", "-C", dst)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return "", err
	}
	untar.Stdin = pipe
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return "", err
	}
	if err := archive.Run(); err != nil {
		return "", fmt.Errorf("git archive %s: %w", ref, err)
	}
	if err := untar.Wait(); err != nil {
		return "", fmt.Errorf("unpacking %s: %w", ref, err)
	}
	return filepath.Abs(dst)
}

// bench runs one workload once in tree and parses the result line. A run
// that answers wrongly or fails operations is an error: no number from it
// is comparable.
func bench(tree, workload string, seed int64, seconds float64) (run, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = tree
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return run{}, fmt.Errorf("%w\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r run
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return run{}, fmt.Errorf("result line: %w", err)
	}
	if !r.Correct || r.Failed != 0 {
		return r, fmt.Errorf("correct=%v failed=%d", r.Correct, r.Failed)
	}
	return r, nil
}

// compare reduces one metric's paired runs to a cell. A pair is won by the
// side that is better in the metric's direction.
func compare(m metric, as, bs []run) *cell {
	c := &cell{Pairs: len(as)}
	var av, bv []float64
	for i := range as {
		x, y := as[i].Metrics[m.Name].Value, bs[i].Metrics[m.Name].Value
		av, bv = append(av, x), append(bv, y)
		switch {
		case x == y:
			c.Ties++
		case (y < x) == (m.Better == "lower"):
			c.Won++
		}
	}
	c.Parent, c.ParentQ = quartiles(av)
	c.Change, c.ChangeQ = quartiles(bv)
	return c
}

// quartiles returns the median and [q1, q3], interpolating linearly between
// the two nearest ranks.
func quartiles(v []float64) (median float64, q [2]float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		r := p * float64(len(s)-1)
		lo := int(r)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.5), [2]float64{at(0.25), at(0.75)}
}
