// Command ditabench regenerates the paper's tables and figures (Section 7,
// Appendices B–C) on the synthetic stand-in datasets.
//
// Usage:
//
//	ditabench -list                         # enumerate experiment ids
//	ditabench -exp fig7a                    # one experiment, aligned text
//	ditabench -exp fig7a,fig9a -tsv         # several, tab-separated
//	ditabench -exp all -scale 0.2           # full suite at reduced scale
//
// Scale, worker count and query count are adjustable; EXPERIMENTS.md
// records the reference run. Performance over time is the repository
// benchmark's job (bench/, make bench-diff, BENCH_HISTORY.jsonl), not this
// command's.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dita/internal/exp"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	expFlag := flag.String("exp", "", "comma-separated experiment ids, or 'all'")
	scale := flag.Float64("scale", 1.0, "dataset scale multiplier")
	workers := flag.Int("workers", 8, "simulated worker (core) count")
	queries := flag.Int("queries", 100, "search workload size")
	seed := flag.Int64("seed", 42, "generation seed")
	tsv := flag.Bool("tsv", false, "emit tab-separated values instead of aligned text")
	flag.Parse()

	if *list {
		for _, id := range exp.IDs() {
			fmt.Printf("%-8s %s\n", id, exp.Title(id))
		}
		return
	}
	cfg := exp.DefaultConfig()
	cfg.Scale = *scale
	cfg.Workers = *workers
	cfg.Queries = *queries
	cfg.Seed = *seed

	if *expFlag == "" {
		fmt.Fprintln(os.Stderr, "ditabench: -exp required (or -list); e.g. -exp fig7a or -exp all")
		os.Exit(2)
	}

	var ids []string
	if *expFlag == "all" {
		ids = exp.IDs()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	failed := 0
	for _, id := range ids {
		start := time.Now()
		tbl, err := exp.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ditabench: %s: %v\n", id, err)
			failed++
			continue
		}
		if *tsv {
			fmt.Printf("# %s: %s\n%s\n", id, exp.Title(id), tbl.TSV())
		} else {
			fmt.Printf("%s(completed in %v)\n\n", tbl.String(), time.Since(start).Round(time.Millisecond))
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
