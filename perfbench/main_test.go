package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric tables
// the program reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
	}
	same := func(kind string, got, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// smoke runs one workload in smoke mode and checks it answered correctly
// and reported every metric of its mode.
func smoke(t *testing.T, workload string, traced bool, binDir string) {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 1, traced: traced, smoke: true, binDir: binDir, outDir: t.TempDir()}
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	table := endToEnd
	if traced {
		table = perLayer
	}
	for _, m := range table {
		mv, ok := rep.Metrics[m.Name]
		if !ok {
			t.Errorf("missing %s", m.Name)
			continue
		}
		if !traced && mv.Value <= 0 {
			t.Errorf("end-to-end %s = %v, want > 0", m.Name, mv.Value)
		}
	}
}

func TestSmokeDPCold(t *testing.T) {
	smoke(t, "dp-cold", false, "")
	smoke(t, "dp-cold", true, "")
}

func TestSmokeFlowsBaseline(t *testing.T) {
	smoke(t, "flows-baseline", false, "")
	smoke(t, "flows-baseline", true, "")
}

func TestSmokeServeFleet(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/merlind", "./cmd/merlinrouter")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the served binaries: %v\n%s", err, out)
	}
	smoke(t, "serve-fleet", false, bin)
	smoke(t, "serve-fleet", true, bin)
}
