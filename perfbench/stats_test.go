package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.9, 3.7}, {1, 4},
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no data should be NaN")
	}
}

func TestFailFrac(t *testing.T) {
	checks := []check{{OK: true}, {OK: false}, {OK: true}, {OK: true}}
	if a, f, frac := failFrac(checks); a != 4 || f != 1 || frac != 0.25 {
		t.Errorf("failFrac = %d, %d, %v; want 4, 1, 0.25", a, f, frac)
	}
	if a, f, frac := failFrac(nil); a != 0 || f != 0 || frac != 0 {
		t.Errorf("failFrac(nil) = %d, %d, %v", a, f, frac)
	}
}

func TestDigestChecks(t *testing.T) {
	got := digestChecks([]sample{{Digest: "a"}, {Digest: "a"}, {Digest: "b"}})
	if len(got) != 2 || !got[0].OK || got[1].OK {
		t.Fatalf("digestChecks = %+v; want run 1 to pass and run 2 to fail", got)
	}
	if len(digestChecks([]sample{{Digest: "a"}})) != 0 {
		t.Error("a single run has nothing to compare")
	}
}

func TestParseHostCPU(t *testing.T) {
	c, ok := parseHostCPU("cpu  100 5 20 800 10 1 2 60 0 0\ncpu0 50 2 10 400 5 0 1 30 0 0\n")
	if !ok || c.steal != 60 || c.total != 998 {
		t.Fatalf("parseHostCPU = %+v, %v; want steal 60 of 998", c, ok)
	}
	for _, bad := range []string{"", "intr 1 2 3", "cpu 1 2 3"} {
		if _, ok := parseHostCPU(bad); ok {
			t.Errorf("parseHostCPU(%q) accepted", bad)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}
