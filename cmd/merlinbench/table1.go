// The Table 1-size memory line: Flow III on one of the paper's Table 1 nets,
// solved in a child process of its own so that the child's peak resident set
// is the solve's alone.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"merlin/internal/expt"
	"merlin/internal/flows"
	"merlin/internal/net"
)

// table1Net names the Table 1 net the section solves: net10 of C5315, 49
// sinks, the largest net Flow III solves in about half a minute.
const table1Net = "net10"

// table1Result is Flow III under flows.ProfileFor on one Table 1 net: the
// child's wall time for the solve, its VmHWM (peak resident set, read from
// /proc/self/status, which a fresh exec starts from zero), and the answer's
// loops, driver required time and buffer area, so a change that saves
// memory by answering differently shows.
type table1Result struct {
	Net        string  `json:"net"`
	Sinks      int     `json:"sinks"`
	WallS      float64 `json:"wall_s"`
	VmHWMMB    float64 `json:"vm_hwm_mb"`
	Loops      int     `json:"loops"`
	ReqNS      float64 `json:"req_ns"`
	BufferArea float64 `json:"buffer_area"`
}

// runChildTable1 is the re-exec'd half of the section: it solves the net,
// then prints its table1Result as one JSON line on standard output.
func runChildTable1() {
	res, err := solveTable1Net()
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "merlinbench child:", err)
		os.Exit(1)
	}
}

func solveTable1Net() (table1Result, error) {
	for _, spec := range expt.Table1Specs() {
		if spec.Net != table1Net {
			continue
		}
		prof := flows.ProfileFor(spec.Sinks)
		nt := net.Generate(net.DefaultGenSpec(spec.Sinks, spec.Seed), prof.Tech, prof.Lib.Driver)
		start := time.Now()
		r, err := flows.RunFlowIIIOn(context.Background(), flows.NewEngineIII(nt, prof), prof)
		if err != nil {
			return table1Result{}, err
		}
		wall := time.Since(start)
		status, err := os.ReadFile("/proc/self/status")
		if err != nil {
			return table1Result{}, err
		}
		kb, err := vmHWMKB(status)
		if err != nil {
			return table1Result{}, err
		}
		return table1Result{
			Net: spec.Net, Sinks: spec.Sinks, WallS: wall.Seconds(), VmHWMMB: float64(kb) / 1024,
			Loops: r.Loops, ReqNS: r.Eval.ReqAtDriverInput, BufferArea: r.Eval.BufferArea,
		}, nil
	}
	return table1Result{}, fmt.Errorf("no Table 1 net named %s", table1Net)
}

// vmHWMKB reads the VmHWM line of a /proc/<pid>/status file, in kB.
func vmHWMKB(status []byte) (int64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(string(f[0]), 10, 64)
	}
	return 0, errors.New("no VmHWM line")
}

// runTable1 re-execs this binary as the section's child and reads its
// result.
func runTable1() (table1Result, error) {
	fmt.Fprintln(os.Stderr, "merlinbench: table1", table1Net)
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "MERLINBENCH_CHILD=table1")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	res, err := parseTable1(stdout.Bytes())
	if runErr != nil {
		err = runErr
	}
	if err != nil {
		return res, fmt.Errorf("table1 %s: %w", table1Net, err)
	}
	return res, nil
}

// parseTable1 reads the child's result from the last line of its standard
// output, and fails unless it names a solved net and its peak.
func parseTable1(stdout []byte) (table1Result, error) {
	var res table1Result
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("no JSON result line: %w", err)
	}
	if res.Net == "" || res.Loops < 1 || res.WallS <= 0 || res.VmHWMMB <= 0 {
		return res, fmt.Errorf("incomplete result %+v", res)
	}
	return res, nil
}
