package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
)

// smokeParams is the benchmark at 4 000 trajectories and about 1% of its time.
func smokeParams() params {
	return params{N: 4000, J: 800, Seconds: 0.5, SetupReps: 1, RestartReps: 1, JoinReps: 1,
		WarmSearch: 10, WarmKNN: 2, CheckQs: 24, DurableQs: 20, Slice: 40, Rounds: 2, SearchPool: 300, KNNPool: 60}
}

// TestSmoke runs every workload end to end, small: the harness must build
// against the program's current API and every answer and durability check
// must pass.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(w.Name, smokeParams(), 7, false, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 {
					t.Errorf("%s = %v, want a positive measurement", m.Name, v.Value)
				}
			}
		})
	}
}

// TestSmokeLayerProbe runs the traced run of the two workloads that between
// them cross every layer, and wants every per-layer metric present.
func TestSmokeLayerProbe(t *testing.T) {
	for _, name := range []string{wlEngine, wlServeWrite} {
		name := name
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := runWorkload(name, smokeParams(), 7, true, dir, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("failed=%d", res.Failed)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Fatalf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
			}
			if fi, err := os.Stat(dir + "/trace_" + name + ".jsonl"); err != nil || fi.Size() == 0 {
				t.Fatalf("span file missing or empty: %v", err)
			}
		})
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and spec.go identical.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, spec %d", file.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(file.Workloads, workloads) {
		t.Errorf("workloads differ:\n json %v\n spec %v", file.Workloads, workloads)
	}
	sameMetrics(t, "end_to_end", file.EndToEnd, endToEnd)
	sameMetrics(t, "per_layer", file.PerLayer, perLayer)
}

func sameMetrics(t *testing.T, key string, file, spec []metricSpec) {
	t.Helper()
	if len(file) != len(spec) {
		t.Errorf("%s: BENCHMARK.json has %d metrics, spec.go %d", key, len(file), len(spec))
	}
	for i := 0; i < len(file) && i < len(spec); i++ {
		if file[i] != spec[i] {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, spec.go %+v", key, i, file[i], spec[i])
			return
		}
	}
}
