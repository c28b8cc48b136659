package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// smokeConfig is a tiny run of one workload.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	dir := t.TempDir()
	return config{
		workload: workload, seed: 3, seconds: 1.5, trace: trace, smoke: true,
		spansDir: dir + "/spans", workDir: dir + "/work",
	}
}

// TestSmokeEveryWorkload runs every workload in both modes and checks that
// every metric BENCHMARK.json names is emitted with its unit, that work was
// done, and that the output checks pass.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w + map[bool]string{false: "/end-to-end", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				res, problems, err := run(smokeConfig(t, w, trace))
				if err != nil {
					t.Fatal(err)
				}
				if len(problems) > 0 {
					t.Fatalf("checks failed: %s", strings.Join(problems, "; "))
				}
				if res.Attempted == 0 || res.Attempted == res.Failed {
					t.Fatalf("attempted %d, failed %d: no completed operation", res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestPlantedFaultFailsChecks arms the commit-reorder fault on one serving
// primary of every sim-fig4 deployment: the output checks must catch it.
// (The live workloads cannot fire it: one in-order TCP connection delivers
// update bodies to every primary in the sequencer's order, so no GSN hole
// ever opens.)
func TestPlantedFaultFailsChecks(t *testing.T) {
	for _, trace := range []bool{false, true} {
		cfg := smokeConfig(t, "sim-fig4", trace)
		cfg.fault = true
		_, problems, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(problems) == 0 {
			t.Fatalf("trace=%v: the checks passed with the commit-reorder fault armed", trace)
		}
		t.Logf("trace=%v: %d problems, first: %s", trace, len(problems), problems[0])
	}
}

// benchSpec is the part of BENCHMARK.json the tests compare against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the program in step.
func TestSpecMatchesProgram(t *testing.T) {
	s := loadSpec(t)
	known := make(map[string]bool)
	for _, w := range workloads {
		known[w] = true
	}
	for _, w := range s.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json workload %s is not in the program", w.Name)
		}
	}
	var e2e []string
	for _, m := range s.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	got := append([]string(nil), endToEndNames...)
	sort.Strings(e2e)
	sort.Strings(got)
	if strings.Join(e2e, ",") != strings.Join(got, ",") {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", e2e, got)
	}
	var layers []string
	for _, m := range s.PerLayer {
		layers = append(layers, m.Name)
	}
	if strings.Join(layers, ",") != strings.Join(perLayerNames, ",") {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", layers, perLayerNames)
	}
}
