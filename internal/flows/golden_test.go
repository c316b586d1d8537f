package flows

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"merlin/internal/core"
	"merlin/internal/curve"
	"merlin/internal/net"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current code")

const goldenPath = "testdata/golden.json"

// goldenCase is one pinned net: a generated net under ProfileFor(n), with
// an optional change to the Flow III options.
type goldenCase struct {
	Name    string  `json:"name"`
	N       int     `json:"n"`
	Seed    int64   `json:"seed"`
	Variant string  `json:"variant"`
	Floor   float64 `json:"req_floor,omitempty"`   // min-area only
	Budget  float64 `json:"area_budget,omitempty"` // max-req-budget only
}

// Variants. "default" runs all three flows; the others pin Flows I and II
// alone ("flows12") or Flow III alone. "flow3" is Flow III under the default
// options, which with "flows12" pins all three flows on one net as two
// entries; the rest change Flow III options.
const (
	variantDefault   = "default"
	variantFlows12   = "flows12"
	variantFlow3     = "flow3"
	variantForceBuf  = "force-group-buffers"
	variantMIC2      = "max-internal-children-2"
	variantMinArea   = "min-area"
	variantBudget    = "max-req-budget"
	variantNoSteiner = "no-steiner-buffers"
	variantHops2     = "transfer-hops-2"
)

func goldenCases() []goldenCase {
	var cs []goldenCase
	add := func(n int, seed int64, variant string, floor float64) {
		cs = append(cs, goldenCase{
			Name: fmt.Sprintf("n%d-s%d-%s", n, seed, variant),
			N:    n, Seed: seed, Variant: variant, Floor: floor,
		})
	}
	// addBudget pins GoalMaxReq under an area budget: the largest frontier
	// area strictly below the Flow III answer's area pinned for the same
	// net's default entry, so the budget excludes the unbudgeted answer.
	addBudget := func(n int, seed int64, budget float64) {
		cs = append(cs, goldenCase{
			Name: fmt.Sprintf("n%d-s%d-%s", n, seed, variantBudget),
			N:    n, Seed: seed, Variant: variantBudget, Budget: budget,
		})
	}
	for n := 3; n <= 8; n++ {
		for i := int64(0); i < 2; i++ {
			add(n, int64(1000+10*n)+i, variantDefault, 0)
		}
	}
	for n := 9; n <= 12; n++ {
		add(n, int64(1000+10*n), variantDefault, 0)
	}
	add(16, 1160, variantFlows12, 0)
	add(16, 1161, variantFlows12, 0)
	add(24, 1240, variantFlows12, 0)
	add(32, 1320, variantFlows12, 0)
	add(16, 1160, variantFlow3, 0)
	add(16, 1161, variantFlow3, 0)
	for n := 4; n <= 6; n++ {
		add(n, int64(1000+10*n), variantForceBuf, 0)
	}
	// From n = 7 on, ProfileFor's α lets a sub-problem's single-group range
	// (l ≥ L−α+1) differ from its pair range (l ≤ L−2).
	for _, n := range []int{3, 4, 5, 7, 8} {
		add(n, int64(1000+10*n), variantMIC2, 0)
	}
	add(4, 1040, variantMinArea, 2.5)
	add(5, 1050, variantMinArea, 2.5)
	add(6, 1060, variantMinArea, 3.5)
	add(4, 1041, variantMinArea, 99) // infeasible: Extract falls back to max req
	addBudget(5, 1050, 9032.344656203233)
	addBudget(6, 1060, 8195.997719185174)
	addBudget(8, 1080, 9032.344656203233)
	add(5, 1050, variantNoSteiner, 0)
	add(6, 1060, variantNoSteiner, 0)
	// ProfileFor runs one transfer hop, so only here does a buffer pass
	// follow the last of several hops rather than the only one.
	add(5, 1050, variantHops2, 0)
	add(6, 1060, variantHops2, 0)
	return cs
}

// flowAnswer is one flow's evaluated tree.
type flowAnswer struct {
	Req  float64 `json:"req"`
	Area float64 `json:"area"`
	WL   int64   `json:"wl"`
}

// routedAnswer is Flow I's or Flow II's answer: the evaluated tree, and the
// tree itself, node for node, as the lines of tree.String.
type routedAnswer struct {
	flowAnswer
	Tree []string `json:"tree"`
}

// merlinAnswer adds what Flow III exposes beyond the tree's evaluation: the
// realized sink order, the source frontier as (load, req, area) triples in
// curve order, and the tree itself, node for node, as the lines of
// tree.String.
type merlinAnswer struct {
	flowAnswer
	Order    []int        `json:"order"`
	Frontier [][3]float64 `json:"frontier"`
	Tree     []string     `json:"tree"`
}

type goldenEntry struct {
	goldenCase
	FlowI   *routedAnswer `json:"flow1,omitempty"`
	FlowII  *routedAnswer `json:"flow2,omitempty"`
	FlowIII *merlinAnswer `json:"flow3,omitempty"`
}

func answerOf(r Result) flowAnswer {
	return flowAnswer{Req: r.Eval.ReqAtDriverInput, Area: r.Eval.BufferArea, WL: r.Eval.Wirelength}
}

// treeLines returns the lines of r's tree.String.
func treeLines(r Result) []string {
	return strings.Split(strings.TrimSuffix(r.Tree.String(), "\n"), "\n")
}

func frontierOf(c *curve.Curve) [][3]float64 {
	out := make([][3]float64, len(c.Sols))
	for i, s := range c.Sols {
		out[i] = [3]float64{s.Load, s.Req, s.Area}
	}
	return out
}

func runGolden(t *testing.T, c goldenCase) goldenEntry {
	p := ProfileFor(c.N)
	nt := net.Generate(net.DefaultGenSpec(c.N, c.Seed), p.Tech, p.Lib.Driver)
	e := goldenEntry{goldenCase: c}
	if c.Variant == variantDefault || c.Variant == variantFlows12 {
		r1, err := RunFlowI(nt, p)
		if err != nil {
			t.Fatalf("%s: flow I: %v", c.Name, err)
		}
		r2, err := RunFlowII(nt, p)
		if err != nil {
			t.Fatalf("%s: flow II: %v", c.Name, err)
		}
		checkTiming(t, c.Name+" flow I", r1, p)
		checkTiming(t, c.Name+" flow II", r2, p)
		e.FlowI = &routedAnswer{flowAnswer: answerOf(r1), Tree: treeLines(r1)}
		e.FlowII = &routedAnswer{flowAnswer: answerOf(r2), Tree: treeLines(r2)}
	}
	if c.Variant == variantFlows12 {
		return e
	}
	switch c.Variant {
	case variantForceBuf:
		p.Core.ForceGroupBuffers = true
	case variantMIC2:
		p.Core.MaxInternalChildren = 2
	case variantMinArea:
		p.Core.Goal = core.Goal{Mode: core.GoalMinArea, ReqFloor: c.Floor}
	case variantBudget:
		p.Core.Goal = core.Goal{Mode: core.GoalMaxReq, AreaBudget: c.Budget}
	case variantNoSteiner:
		p.Core.BufferAtSteiner = false
	case variantHops2:
		p.Core.TransferHops = 2
	}
	r3, err := RunFlowIII(nt, p)
	if err != nil {
		t.Fatalf("%s: flow III: %v", c.Name, err)
	}
	checkTiming(t, c.Name+" flow III", r3, p)
	e.FlowIII = &merlinAnswer{
		flowAnswer: answerOf(r3),
		Order:      r3.Tree.SinkOrder(),
		Frontier:   frontierOf(r3.Frontier),
		Tree:       treeLines(r3),
	}
	return e
}

// TestGolden pins every flow's answer on a seeded corpus, float for float,
// and every flow's tree node for node. The DP is deterministic
// (TestFlowsDeterministic), so any difference means the code computes a
// different answer. Every tree is also timed against the map-based
// reference of timingref_test.go. A change that does so on purpose
// regenerates the corpus with
//
//	go test ./internal/flows -run TestGolden -update
//
// and states in its description which entries moved and why.
func TestGolden(t *testing.T) {
	cases := goldenCases()
	got := make([]goldenEntry, len(cases))
	for i, c := range cases {
		got[i] = runGolden(t, c)
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("corpus has %d entries, the case list %d (regenerate with -update)", len(want), len(got))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.goldenCase != w.goldenCase {
			t.Fatalf("entry %d: case %+v, corpus has %+v (regenerate with -update)", i, g.goldenCase, w.goldenCase)
		}
		compareRouted(t, g.Name+" flow I", g.FlowI, w.FlowI)
		compareRouted(t, g.Name+" flow II", g.FlowII, w.FlowII)
		compareMerlin(t, g.Name+" flow III", g.FlowIII, w.FlowIII)
	}
}

func compareFlow(t *testing.T, name string, got, want *flowAnswer) {
	t.Helper()
	switch {
	case got == nil && want == nil:
	case got == nil || want == nil:
		t.Errorf("%s: ran=%v, pinned=%v", name, got != nil, want != nil)
	case *got != *want:
		t.Errorf("%s: got %+v, pinned %+v", name, *got, *want)
	}
}

func compareRouted(t *testing.T, name string, got, want *routedAnswer) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Errorf("%s: ran=%v, pinned=%v", name, got != nil, want != nil)
		}
		return
	}
	compareFlow(t, name, &got.flowAnswer, &want.flowAnswer)
	compareTree(t, name, got.Tree, want.Tree)
}

// compareTree compares two trees as the lines of tree.String.
func compareTree(t *testing.T, name string, got, want []string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("%s: tree\n%s\npinned\n%s", name, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func compareMerlin(t *testing.T, name string, got, want *merlinAnswer) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Errorf("%s: ran=%v, pinned=%v", name, got != nil, want != nil)
		}
		return
	}
	compareFlow(t, name, &got.flowAnswer, &want.flowAnswer)
	if !slices.Equal(got.Order, want.Order) {
		t.Errorf("%s: realized order %v, pinned %v", name, got.Order, want.Order)
	}
	compareTree(t, name, got.Tree, want.Tree)
	if len(got.Frontier) != len(want.Frontier) {
		t.Errorf("%s: frontier has %d solutions, pinned %d:\n got %v\npinned %v", name, len(got.Frontier), len(want.Frontier), got.Frontier, want.Frontier)
		return
	}
	for i := range got.Frontier {
		if got.Frontier[i] != want.Frontier[i] {
			t.Errorf("%s: frontier solution %d is %v, pinned %v", name, i, got.Frontier[i], want.Frontier[i])
		}
	}
}
