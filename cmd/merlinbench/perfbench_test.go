package main

import (
	"fmt"
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
