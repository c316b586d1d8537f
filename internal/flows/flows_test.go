package flows

import (
	"context"
	"slices"
	"sync"
	"testing"

	"merlin/internal/net"
)

func TestRunAllProducesComparableResults(t *testing.T) {
	p := FastProfile()
	nt := net.Generate(net.DefaultGenSpec(7, 11), p.Tech, p.Lib.Driver)
	rs, err := RunAll(nt, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("want 3 results, got %d", len(rs))
	}
	for i, r := range rs {
		if r.Flow != ID(i) {
			t.Fatalf("result %d has flow %v", i, r.Flow)
		}
		if err := r.Tree.Validate(); err != nil {
			t.Fatalf("%v: %v", r.Flow, err)
		}
		if r.Eval.Delay <= 0 {
			t.Fatalf("%v: non-positive delay %g", r.Flow, r.Eval.Delay)
		}
		if r.Runtime <= 0 {
			t.Fatalf("%v: no runtime recorded", r.Flow)
		}
	}
	if rs[2].Loops < 1 {
		t.Fatal("MERLIN must report its loop count")
	}
}

func TestFlowsDeterministic(t *testing.T) {
	p := FastProfile()
	nt := net.Generate(net.DefaultGenSpec(6, 21), p.Tech, p.Lib.Driver)
	for _, f := range []ID{FlowI, FlowII, FlowIII} {
		a, err := Run(f, nt, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(f, nt, p)
		if err != nil {
			t.Fatal(err)
		}
		if a.Eval.Delay != b.Eval.Delay || a.Eval.BufferArea != b.Eval.BufferArea {
			t.Fatalf("%v: nondeterministic results: %+v vs %+v", f, a.Eval, b.Eval)
		}
	}
}

// TestFrontierIsCallersCopy: Result.Frontier must not alias the warm
// engine's memo. After the first run's frontier is cut to its last solution
// and that solution's required time lowered, a second run on the same engine
// must return the first run's answer and frontier unchanged.
func TestFrontierIsCallersCopy(t *testing.T) {
	p := ProfileFor(6)
	nt := net.Generate(net.DefaultGenSpec(6, 37), p.Tech, p.Lib.Driver)
	en := NewEngineIII(nt, p)
	r1, err := RunFlowIIIOn(context.Background(), en, p)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(r1.Frontier.Sols)
	if len(want) < 2 {
		t.Fatalf("frontier has %d solutions; the test needs at least 2 to cut", len(want))
	}
	r1.Frontier.Sols = r1.Frontier.Sols[len(want)-1:]
	r1.Frontier.Sols[0].Req -= 100
	r2, err := RunFlowIIIOn(context.Background(), en, p)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Eval != r1.Eval {
		t.Errorf("warm rerun after editing the frontier: %+v, first run %+v", r2.Eval, r1.Eval)
	}
	if !slices.Equal(r2.Frontier.Sols, want) {
		t.Errorf("warm rerun frontier %v, first run %v", r2.Frontier.Sols, want)
	}
}

// TestWarmRepeatReplaysNothing: the engine keeps the records of every tree
// it has rebuilt, so a repeat of the same request on a warm engine builds
// its tree without replaying a cell or running a *PTREE call, and builds
// the same tree.
func TestWarmRepeatReplaysNothing(t *testing.T) {
	p := ProfileFor(6)
	nt := net.Generate(net.DefaultGenSpec(6, 37), p.Tech, p.Lib.Driver)
	en := NewEngineIII(nt, p)
	r1, err := RunFlowIIIOn(context.Background(), en, p)
	if err != nil {
		t.Fatal(err)
	}
	replays, calls := en.Replays, en.StarDPCalls
	if replays == 0 {
		t.Fatal("the cold run rebuilt its trees without replaying a cell")
	}
	r2, err := RunFlowIIIOn(context.Background(), en, p)
	if err != nil {
		t.Fatal(err)
	}
	if en.Replays != replays || en.StarDPCalls != calls {
		t.Errorf("warm repeat replayed %d cells and ran %d *PTREE calls, want 0 and 0", en.Replays-replays, en.StarDPCalls-calls)
	}
	if r2.Tree.String() != r1.Tree.String() {
		t.Errorf("warm repeat tree\n%s\ncold tree\n%s", r2.Tree, r1.Tree)
	}
}

func TestProfileForScalesDown(t *testing.T) {
	small := ProfileFor(5)
	big := ProfileFor(60)
	if big.Core.MaxSols > small.Core.MaxSols {
		t.Fatal("curve cap must not grow with n")
	}
	if big.MaxCands > small.MaxCands {
		t.Fatal("candidate budget must not grow with n")
	}
	if big.Core.MaxLoops > small.Core.MaxLoops {
		t.Fatal("loop bound must not grow with n")
	}
	if len(big.Lib.Buffers) > len(small.Lib.Buffers) {
		t.Fatal("library subset must not grow with n")
	}
}

func TestUnknownFlowRejected(t *testing.T) {
	p := FastProfile()
	nt := net.Generate(net.DefaultGenSpec(4, 2), p.Tech, p.Lib.Driver)
	if _, err := Run(ID(99), nt, p); err == nil {
		t.Fatal("unknown flow accepted")
	}
}

func TestFlowStrings(t *testing.T) {
	for f, want := range map[ID]string{
		FlowI:   "I:LTTREE+PTREE",
		FlowII:  "II:PTREE+GI90",
		FlowIII: "III:MERLIN",
	} {
		if f.String() != want {
			t.Fatalf("String(%d) = %q", int(f), f.String())
		}
	}
}

// TestShape is the headline qualitative claim of Table 1 on a mid net:
// MERLIN's delay is no worse than the sequential flows' (allowing a small
// epsilon for the DP's approximations under test-sized knobs).
func TestShape(t *testing.T) {
	p := ProfileFor(8)
	p.Core.MaxLoops = 3
	wins := 0
	for seed := int64(200); seed < 203; seed++ {
		nt := net.Generate(net.DefaultGenSpec(8, seed), p.Tech, p.Lib.Driver)
		rs, err := RunAll(nt, p)
		if err != nil {
			t.Fatal(err)
		}
		dI, dIII := rs[0].Eval.Delay, rs[2].Eval.Delay
		t.Logf("seed %d: I=%.3f II=%.3f III=%.3f", seed, dI, rs[1].Eval.Delay, dIII)
		if dIII <= dI {
			wins++
		}
	}
	if wins < 2 {
		t.Fatalf("MERLIN beat Flow I on only %d of 3 nets", wins)
	}
}

// TestFlowsConcurrent runs Flows I, II and III at once, one net and one
// solver or engine per goroutine, and checks every answer against the same
// flow run alone. ptree.Solver and core.Engine mutate their reconstruction
// tables on every solve, so under the race detector (`make race` runs this
// ten times) it checks that no such state is shared between goroutines.
func TestFlowsConcurrent(t *testing.T) {
	p := FastProfile()
	var nets []*net.Net
	for seed := int64(31); seed < 33; seed++ {
		nets = append(nets, net.Generate(net.DefaultGenSpec(6, seed), p.Tech, p.Lib.Driver))
	}
	flows := []ID{FlowI, FlowII, FlowIII}
	want := make([]Result, len(flows)*len(nets))
	for i := range want {
		r, err := Run(flows[i%len(flows)], nets[i/len(flows)], p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	got := make([]Result, len(want))
	errs := make([]error, len(want))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Run(flows[i%len(flows)], nets[i/len(flows)], p)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("%v on net %d: %v", flows[i%len(flows)], i/len(flows), errs[i])
		}
		if got[i].Eval != want[i].Eval || got[i].Tree.String() != want[i].Tree.String() {
			t.Errorf("%v on net %d: concurrent run %+v differs from the serial run %+v", flows[i%len(flows)], i/len(flows), got[i].Eval, want[i].Eval)
		}
	}
}
