package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestParseReport(t *testing.T) {
	good := `{"correct":true,"attempted":36,"failed":0,"metrics":{"nets_per_s":{"value":10.5,"unit":"nets/s"}}}`
	rep, err := parseReport([]byte(good + "\n"))
	if err != nil {
		t.Fatalf("parseReport(good) = %v", err)
	}
	if m := rep.Metrics["nets_per_s"]; m.Value != 10.5 || m.Unit != "nets/s" {
		t.Fatalf("parseReport(good) = %+v", rep)
	}
	bad := []struct{ name, stdout, want string }{
		{"wrong answer", `{"correct":false,"attempted":36,"failed":1,"metrics":{}}`, `"correct": false`},
		{"no output", "", "no JSON result line"},
		{"no JSON line", "perfbench: workload dp-cold seed 1\n", "no JSON result line"},
		{"JSON not last", good + "\nperfbench: done\n", "no JSON result line"},
	}
	for _, tc := range bad {
		if _, err := parseReport([]byte(tc.stdout)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: parseReport = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestSummarize feeds ten report lines, in shuffled order, through the
// parser and the summarizer: under perfbench's nearest-rank rule the
// median of ten values is the 5th smallest and the quartiles the 3rd and
// 8th.
func TestSummarize(t *testing.T) {
	var reps []perfReport
	for _, v := range []float64{7, 3, 10, 1, 5, 9, 2, 8, 4, 6} {
		line := fmt.Sprintf(`{"correct":true,"attempted":1,"failed":0,"metrics":{`+
			`"nets_per_s":{"value":%g,"unit":"nets/s"},"peak_rss_mb":{"value":30,"unit":"MB"}}}`, v)
		rep, err := parseReport([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	got := summarize(reps)
	want := map[string]spread{
		"nets_per_s":  {Median: 5, Q1: 3, Q3: 8, Unit: "nets/s"},
		"peak_rss_mb": {Median: 30, Q1: 30, Q3: 30, Unit: "MB"},
	}
	if len(got) != len(want) {
		t.Fatalf("summarize = %+v, want %+v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
}

func TestParseTable1(t *testing.T) {
	good := `{"net":"net10","sinks":49,"wall_s":26.6,"vm_hwm_mb":1426,"loops":3,"req_ns":-1.5,"buffer_area":24000}`
	res, err := parseTable1([]byte("merlinbench child: solving\n" + good + "\n"))
	if err != nil {
		t.Fatalf("parseTable1(good) = %v", err)
	}
	if res.Net != "net10" || res.Sinks != 49 || res.VmHWMMB != 1426 || res.Loops != 3 || res.ReqNS != -1.5 {
		t.Fatalf("parseTable1(good) = %+v", res)
	}
	bad := []struct{ name, stdout, want string }{
		{"no output", "", "no JSON result line"},
		{"JSON not last", good + "\nmerlinbench child: done\n", "no JSON result line"},
		{"no peak", `{"net":"net10","sinks":49,"wall_s":26.6,"loops":3}`, "incomplete result"},
		{"no loops", `{"net":"net10","sinks":49,"wall_s":26.6,"vm_hwm_mb":1426}`, "incomplete result"},
	}
	for _, tc := range bad {
		if _, err := parseTable1([]byte(tc.stdout)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: parseTable1 = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestVmHWMKB(t *testing.T) {
	status := "Name:\tmerlinbench\nVmPeak:\t 2000000 kB\nVmHWM:\t 1460224 kB\nVmRSS:\t 1000 kB\n"
	if kb, err := vmHWMKB([]byte(status)); err != nil || kb != 1460224 {
		t.Fatalf("vmHWMKB = %d, %v; want 1460224", kb, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if kb, err := vmHWMKB([]byte(bad)); err == nil {
			t.Errorf("vmHWMKB(%q) = %d, want an error", bad, kb)
		}
	}
	// This process's own status file parses too.
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skip("no /proc/self/status:", err)
	}
	if kb, err := vmHWMKB(b); err != nil || kb <= 0 {
		t.Fatalf("own status: vmHWMKB = %d, %v", kb, err)
	}
}
