package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"

	"merlin/internal/trace"
)

// spanLog keeps the traced run's spans in memory — the benchmark's own
// spans around its calls into each module, and the spans the program emits
// inside them — and writes them out when the run ends, with a per-layer
// table of self time, waiting time and span count.
type spanLog struct {
	path     string
	workload string
	seed     int64
	traces   map[string][]*trace.TraceJSON // by source: bench, router, backend
}

func newSpanLog(cfg config, workload string) *spanLog {
	return &spanLog{
		path:     filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d", workload, cfg.seed)),
		workload: workload,
		seed:     cfg.seed,
		traces:   map[string][]*trace.TraceJSON{},
	}
}

// add snapshots a finished in-process trace under source and returns the
// snapshot.
func (l *spanLog) add(source string, tr *trace.Trace) *trace.TraceJSON {
	snap := tr.Snapshot()
	l.traces[source] = append(l.traces[source], snap)
	return snap
}

// addJSON keeps a trace fetched from a served process.
func (l *spanLog) addJSON(source string, tj *trace.TraceJSON) {
	l.traces[source] = append(l.traces[source], tj)
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	SelfMS float64 `json:"self_ms"`
	WaitMS float64 `json:"wait_ms"`
}

// layerOf maps a span name to its module. The benchmark names its own spans
// <module>.<operation>; the program's span names are mapped explicitly.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "dp."):
		return "core"
	case name == "route" || name == "cache.lookup" || name == "queue.wait" || strings.HasPrefix(name, "rung."):
		return "service"
	case strings.HasPrefix(name, "journal.") || strings.HasPrefix(name, "store."):
		return "journal"
	case strings.HasPrefix(name, "router.") || strings.HasPrefix(name, "proxy.") || name == "qos.admit":
		return "router"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layers computes the per-layer table over every kept trace. A span's self
// time is its duration minus the part of it that its children cover; a span
// named *.wait counts as waiting for its layer instead of self time.
func (l *spanLog) layers() []layerRow {
	rows := map[string]*layerRow{}
	for _, list := range l.traces {
		for _, tj := range list {
			children := map[string][]trace.SpanJSON{}
			for _, s := range tj.Spans {
				if s.ParentID != "" {
					children[s.ParentID] = append(children[s.ParentID], s)
				}
			}
			for _, s := range tj.Spans {
				if s.EndUnixNano == 0 {
					continue // still open when snapshotted
				}
				self := float64(s.EndUnixNano-s.StartUnixNano-covered(s, children[s.SpanID])) / 1e6
				layer := layerOf(s.Name)
				r := rows[layer]
				if r == nil {
					r = &layerRow{Layer: layer}
					rows[layer] = r
				}
				r.Spans++
				if strings.HasSuffix(s.Name, ".wait") {
					r.WaitMS += self
				} else {
					r.SelfMS += self
				}
			}
		}
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// covered is how many nanoseconds of parent's interval its children cover
// (overlapping children count once).
func covered(parent trace.SpanJSON, kids []trace.SpanJSON) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartUnixNano, parent.StartUnixNano), min(k.EndUnixNano, parent.EndUnixNano)
		if k.EndUnixNano != 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// write stores the spans as <path>.json and the per-layer table as
// <path>.layers.txt, and prints the table to standard error.
func (l *spanLog) write() error {
	rows := l.layers()
	doc := struct {
		Workload string                        `json:"workload"`
		Seed     int64                         `json:"seed"`
		Layers   []layerRow                    `json:"layers"`
		Traces   map[string][]*trace.TraceJSON `json:"traces"`
	}{l.workload, l.seed, rows, l.traces}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(l.path+".json", b, 0o644); err != nil {
		return err
	}
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "layer\tspans\tself_ms\twait_ms\t\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t\n", r.Layer, r.Spans, r.SelfMS, r.WaitMS)
	}
	tw.Flush()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d per-layer spans (%s.json):\n%s", l.workload, l.seed, l.path, sb.String())
	return os.WriteFile(l.path+".layers.txt", []byte(sb.String()), 0o644)
}

// spanDurationsMS lists the durations of tj's spans called name.
func spanDurationsMS(tj *trace.TraceJSON, name string) []float64 {
	var out []float64
	for _, s := range tj.Spans {
		if s.Name == name && s.EndUnixNano != 0 {
			out = append(out, float64(s.EndUnixNano-s.StartUnixNano)/1e6)
		}
	}
	return out
}

// spanTotalMS sums the durations of tj's spans called name.
func spanTotalMS(tj *trace.TraceJSON, name string) float64 {
	var sum float64
	for _, d := range spanDurationsMS(tj, name) {
		sum += d
	}
	return sum
}
