package dnet

import (
	"testing"

	"dita/internal/gen"
)

// benchCluster starts workers + coordinator for benchmarks.
func benchCluster(b *testing.B, n int) (*Coordinator, func()) {
	b.Helper()
	var workers []*Worker
	var addrs []string
	for i := 0; i < n; i++ {
		w := NewWorker()
		addr, err := w.Serve("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		workers = append(workers, w)
		addrs = append(addrs, addr)
	}
	cfg := DefaultNetConfig()
	cfg.Trie.MinNode = 2
	c, err := Connect(addrs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return c, func() {
		c.Close()
		for _, w := range workers {
			w.Close()
		}
	}
}

// BenchmarkNetDispatch measures dataset distribution + remote indexing.
func BenchmarkNetDispatch(b *testing.B) {
	d := gen.Generate(gen.BeijingLike(2000, 1))
	c, stop := benchCluster(b, 3)
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Dispatch("bench", d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetSearch measures end-to-end network search latency (TCP +
// gob + remote trie probe + verification).
func BenchmarkNetSearch(b *testing.B) {
	d := gen.Generate(gen.BeijingLike(5000, 2))
	c, stop := benchCluster(b, 3)
	defer stop()
	if err := c.Dispatch("bench", d); err != nil {
		b.Fatal(err)
	}
	qs := gen.Queries(d, 64, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Search("bench", qs[i%len(qs)], 0.003); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetKNN measures end-to-end network kNN latency: the pilot round
// and the fan-out round it prunes, through the same partition probe as
// BenchmarkNetSearch.
func BenchmarkNetKNN(b *testing.B) {
	d := gen.Generate(gen.BeijingLike(5000, 2))
	c, stop := benchCluster(b, 3)
	defer stop()
	if err := c.Dispatch("bench", d); err != nil {
		b.Fatal(err)
	}
	qs := gen.Queries(d, 64, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SearchKNN("bench", qs[i%len(qs)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetJoin measures the worker-to-worker shuffle join.
func BenchmarkNetJoin(b *testing.B) {
	d := gen.Generate(gen.BeijingLike(600, 4))
	c, stop := benchCluster(b, 3)
	defer stop()
	if err := c.Dispatch("L", d); err != nil {
		b.Fatal(err)
	}
	if err := c.Dispatch("R", d); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Join("L", "R", 0.002); err != nil {
			b.Fatal(err)
		}
	}
}
