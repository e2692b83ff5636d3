package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildGoblaz compiles the server the workloads drive.
func buildGoblaz(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "goblaz")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/goblaz").CombinedOutput()
	if err != nil {
		t.Fatalf("go build goblaz: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload briefly end to end — set-up, load,
// oracle, counters — and checks the result line's shape. The ingest run
// is long enough to see a compaction, which the benchmark requires.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts goblaz servers")
	}
	bin := buildGoblaz(t)
	for _, c := range []struct {
		workload string
		seconds  int
		trace    bool
	}{
		{"scan", 2, false}, {"analytics", 2, false}, {"ingest", 12, false}, {"analytics", 1, true},
	} {
		o := options{workload: c.workload, seed: 7, seconds: c.seconds, trace: c.trace, bin: bin, workdir: t.TempDir()}
		res, err := runBenchmark(context.Background(), o)
		if err != nil {
			t.Fatalf("%s (trace %v): %v", c.workload, c.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", c.workload, res.Correct, res.Attempted, res.Failed)
		}
		want := endToEnd
		if c.trace {
			want = perLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, want %d", c.workload, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", c.workload, m.name, got, m.unit)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []entry                      `json:"end_to_end"`
		PerLayer  []entry                      `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d: %s (%q) in BENCHMARK.json, %s (%q) in the program", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, listed []entry, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(listed), len(defs))
			return
		}
		for i, e := range listed {
			if e.Name != defs[i].name || e.Unit != defs[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) in the program", kind, i, e.Name, e.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
