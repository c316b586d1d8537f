package expt

import (
	"os"
	"strings"
	"testing"

	"merlin/internal/flows"
)

func TestTable1Small(t *testing.T) {
	rows, err := RunTable1(Table1Options{MaxSinks: 10, Profile: func(n int) flows.Profile { return flows.FastProfile() }}, func(s string) { t.Log(s) })
	if err != nil {
		t.Fatal(err)
	}
	WriteTable1(os.Stderr, rows)
}

func TestTable2Small(t *testing.T) {
	rows, err := RunTable2(Table2Options{Scale: 0.02, MaxCircuits: 2, Profile: func(n int) flows.Profile { return flows.FastProfile() }}, func(s string) { t.Log(s) })
	if err != nil {
		t.Fatal(err)
	}
	WriteTable2(os.Stderr, rows)
}

func TestSweep(t *testing.T) {
	pts, err := RunSweep(SweepSpec{Knob: "chis", Values: []int{0, 1}, Sinks: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("want 2 points, got %d", len(pts))
	}
	// Bubbling on explores a superset of orders; with MERLIN iterating both,
	// it must not end up strictly worse.
	if pts[1].Req < pts[0].Req-1e-9 {
		t.Fatalf("bubbling on (%.4f) worse than off (%.4f)", pts[1].Req, pts[0].Req)
	}
	if _, err := RunSweep(SweepSpec{Knob: "nope", Values: []int{1}, Sinks: 4, Seed: 1}); err == nil {
		t.Fatal("unknown knob accepted")
	}
}

// TestSweepRejectsThreeInternalChildren: construction enumerates at most
// pairs of inner groups, so MaxInternalChildren = 3 is an error rather than a
// silent 2.
func TestSweepRejectsThreeInternalChildren(t *testing.T) {
	_, err := RunSweep(SweepSpec{Knob: "internal", Values: []int{3}, Sinks: 5, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "MaxInternalChildren") {
		t.Fatalf("internal=3: got error %v, want the MaxInternalChildren range error", err)
	}
}

// TestSweepMaxSolsOne: a curve cap of one keeps each curve's
// best-required-time solution, and the sweep still solves the net.
func TestSweepMaxSolsOne(t *testing.T) {
	pts, err := RunSweep(SweepSpec{Knob: "maxsols", Values: []int{1, 2}, Sinks: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("want 2 points, got %d", len(pts))
	}
}

func TestCSVWriters(t *testing.T) {
	rows := []Table1Row{{Spec: Table1Spec{Circuit: "C1", Net: "n1", Sinks: 4}, AreaI: 10, DelayI: 1, AreaII: 0.5, DelayII: 0.9, Loops: 2}}
	var b strings.Builder
	if err := WriteTable1CSV(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "C1,n1,4") {
		t.Fatalf("CSV missing row: %s", b.String())
	}
	rows2 := []Table2Row{{Gates: 10, Nets: 12, AreaI: 100, DelayI: 2}}
	rows2[0].Bench.Name = "X"
	var b2 strings.Builder
	if err := WriteTable2CSV(&b2, rows2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), "X,10,12") {
		t.Fatalf("CSV missing row: %s", b2.String())
	}
}

// TestTable1SpecsMatchPaper pins the workload definition to the paper's
// Table 1: 18 nets with these exact sink counts, grouped by circuit.
func TestTable1SpecsMatchPaper(t *testing.T) {
	specs := Table1Specs()
	if len(specs) != 18 {
		t.Fatalf("want 18 nets, got %d", len(specs))
	}
	wantSinks := []int{16, 16, 10, 9, 9, 13, 12, 35, 73, 49, 21, 50, 16, 20, 60, 12, 16, 23}
	for i, s := range specs {
		if s.Sinks != wantSinks[i] {
			t.Errorf("net %d: %d sinks, paper says %d", i+1, s.Sinks, wantSinks[i])
		}
		if s.Net != "net"+itoa(i+1) {
			t.Errorf("net %d named %q", i+1, s.Net)
		}
	}
	circuits := map[string]int{}
	for _, s := range specs {
		circuits[s.Circuit]++
	}
	for _, c := range []string{"C432", "C1355", "C3540", "C5315", "C6288", "C7552"} {
		if circuits[c] != 3 {
			t.Errorf("circuit %s has %d nets, paper has 3", c, circuits[c])
		}
	}
}

func TestRatioGuards(t *testing.T) {
	if got := ratio(2, 4); got != 0.5 {
		t.Fatalf("ratio = %g", got)
	}
	if got := ratio(0, 0); got != 1 {
		t.Fatalf("0/0 must read as parity, got %g", got)
	}
	if got := ratio(5, 0); got <= 1e6 {
		t.Fatalf("x/0 must blow up visibly, got %g", got)
	}
}
