// Package trace is merlind's dependency-free tracing and audit subsystem.
//
// A Trace is a per-request buffer of named, nested spans with attributes,
// carried through call chains on a context.Context. The design point is
// zero-cost-when-disabled: StartSpan on a context that carries no trace
// returns the context unchanged and a nil *Span, and every *Span method is a
// nil-safe no-op, so instrumented code pays one context lookup and nothing
// else (verified by BenchmarkStartSpanDisabled). When a trace is present,
// span bookkeeping is a short critical section on the trace's own mutex —
// spans are recorded at phase granularity (queue wait, ladder rung, DP
// phase, journal append), not per DP sub-problem, so the lock is cold.
//
// Completed traces are retained by a Collector (bounded in-memory ring with
// slow-trace sampling) and exported in an OTLP-shaped JSON form: trace_id,
// span_id, parent_id, start/end unix-nanos, attrs. See collector.go for
// retention and audit.go for the hash-chained job-lifecycle audit log.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// maxSpans bounds one trace's span buffer. A routed request emits a handful
// of spans per ladder rung and DP loop; 256 covers pathological retry storms
// while keeping a hostile or buggy caller from growing a trace without
// bound. Spans past the cap are counted, not stored (see TraceJSON.Dropped).
const maxSpans = 256

// Span is one timed operation inside a Trace. Spans are created only through
// StartSpan (or Collector.Start for the root); the zero value is not useful
// and all methods are safe on a nil receiver so disabled tracing needs no
// call-site guards.
type Span struct {
	tr       *Trace
	name     string
	spanID   string
	parentID string
	start    int64
	end      int64 // 0 while the span is open
	attrs    map[string]string
}

// Trace is one request's span buffer. It is safe for concurrent use: a
// request that times out can abandon its worker goroutine, which keeps
// appending spans while the collector serializes what it has.
type Trace struct {
	id string

	mu      sync.Mutex
	spans   []*Span
	nextID  uint64
	dropped int
}

// NewTrace creates a trace with a root span of the given name. Most callers
// want Collector.Start, which also wires the trace into a context and
// registers it for retention; NewTrace exists for tests and for callers that
// manage retention themselves.
func NewTrace(name string) (*Trace, *Span) {
	tr := &Trace{id: newTraceID()}
	root := tr.newSpan(name, "")
	return tr, root
}

// ID returns the trace's hex trace_id.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// newSpan allocates, registers and starts a span. parentID may be empty
// (root). Returns nil when the trace is at its span cap.
func (t *Trace) newSpan(name, parentID string) *Span {
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return nil
	}
	t.nextID++
	s := &Span{
		tr:       t,
		name:     name,
		spanID:   fmt.Sprintf("%016x", t.nextID),
		parentID: parentID,
		start:    now,
	}
	t.spans = append(t.spans, s)
	return s
}

// SetAttr records a string attribute on the span. No-op on nil.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
	s.tr.mu.Unlock()
}

// End closes the span, stamping its end time. Idempotent; no-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now().UnixNano()
	s.tr.mu.Lock()
	if s.end == 0 {
		s.end = now
	}
	s.tr.mu.Unlock()
}

// SpanJSON is the OTLP-shaped wire form of one span.
type SpanJSON struct {
	TraceID       string            `json:"trace_id"`
	SpanID        string            `json:"span_id"`
	ParentID      string            `json:"parent_id,omitempty"`
	Name          string            `json:"name"`
	StartUnixNano int64             `json:"start_unix_nano"`
	EndUnixNano   int64             `json:"end_unix_nano,omitempty"`
	Attrs         map[string]string `json:"attrs,omitempty"`
}

// TraceJSON is the wire form of one completed trace. DurationMS is the root
// span's wall time, precomputed so stream consumers (merlintop) can rank
// traces without re-deriving it.
type TraceJSON struct {
	TraceID    string     `json:"trace_id"`
	Name       string     `json:"name"`
	DurationMS float64    `json:"duration_ms"`
	Spans      []SpanJSON `json:"spans"`
	Dropped    int        `json:"dropped_spans,omitempty"`
}

// Snapshot serializes the trace's current spans. Open spans are emitted with
// end_unix_nano omitted. Safe to call while other goroutines still append.
func (t *Trace) Snapshot() *TraceJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &TraceJSON{TraceID: t.id, Dropped: t.dropped, Spans: make([]SpanJSON, 0, len(t.spans))}
	for i, s := range t.spans {
		sj := SpanJSON{
			TraceID:       t.id,
			SpanID:        s.spanID,
			ParentID:      s.parentID,
			Name:          s.name,
			StartUnixNano: s.start,
			EndUnixNano:   s.end,
		}
		if len(s.attrs) > 0 {
			sj.Attrs = make(map[string]string, len(s.attrs))
			for k, v := range s.attrs {
				sj.Attrs[k] = v
			}
		}
		out.Spans = append(out.Spans, sj)
		if i == 0 {
			out.Name = s.name
			if s.end > s.start {
				out.DurationMS = float64(s.end-s.start) / 1e6
			}
		}
	}
	return out
}

// newTraceID returns a 16-byte (32 hex char) random trace id. Entropy
// failure degrades to a constant id rather than panicking — a duplicate
// trace id loses a trace, never a request.
func newTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000000000000000000000000000"
	}
	return hex.EncodeToString(b[:])
}
