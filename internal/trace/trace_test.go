package trace

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestStartSpanDisabledIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "anything")
	if sp != nil {
		t.Fatalf("StartSpan without a trace returned a span")
	}
	if ctx2 != ctx {
		t.Fatalf("StartSpan without a trace returned a new context")
	}
	// All span methods must be nil-safe.
	sp.SetAttr("k", "v")
	sp.End()
	var tr *Trace
	if tr.ID() != "" || tr.Snapshot() != nil {
		t.Fatalf("nil trace not inert")
	}
}

func TestStartSpanDisabledAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := StartSpan(ctx, "x")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled StartSpan allocates %v times per op, want 0", allocs)
	}
}

func TestSpanNestingAndSnapshot(t *testing.T) {
	c := NewCollector(8, 0, 1)
	ctx, tr, root := c.Start(context.Background(), "route")
	if tr == nil || root == nil {
		t.Fatalf("collector.Start returned nils")
	}
	root.SetAttr("net", "n1")

	ctx2, child := StartSpan(ctx, "queue.wait")
	_, grand := StartSpan(ctx2, "rung.full")
	grand.SetAttr("tier", "full")
	grand.End()
	child.End()

	// Sibling of queue.wait, started from the root-level ctx.
	_, sib := StartSpan(ctx, "cache.lookup")
	sib.End()

	c.Finish(tr, root)

	snap, ok := c.Get(tr.ID())
	if !ok {
		t.Fatalf("finished trace not retrievable")
	}
	if snap.Name != "route" {
		t.Fatalf("trace name = %q", snap.Name)
	}
	if len(snap.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(snap.Spans))
	}
	byName := map[string]SpanJSON{}
	ids := map[string]bool{}
	for _, s := range snap.Spans {
		byName[s.Name] = s
		ids[s.SpanID] = true
		if s.TraceID != tr.ID() {
			t.Fatalf("span %s has trace id %s, want %s", s.Name, s.TraceID, tr.ID())
		}
		if s.EndUnixNano == 0 {
			t.Fatalf("span %s not ended", s.Name)
		}
		if s.EndUnixNano < s.StartUnixNano {
			t.Fatalf("span %s ends before it starts", s.Name)
		}
	}
	if byName["route"].ParentID != "" {
		t.Fatalf("root has a parent")
	}
	if byName["queue.wait"].ParentID != byName["route"].SpanID {
		t.Fatalf("queue.wait parent = %q, want root", byName["queue.wait"].ParentID)
	}
	if byName["rung.full"].ParentID != byName["queue.wait"].SpanID {
		t.Fatalf("rung.full parent = %q, want queue.wait", byName["rung.full"].ParentID)
	}
	if byName["cache.lookup"].ParentID != byName["route"].SpanID {
		t.Fatalf("cache.lookup parent = %q, want root", byName["cache.lookup"].ParentID)
	}
	// No orphans: every parent id resolves inside the trace.
	for _, s := range snap.Spans {
		if s.ParentID != "" && !ids[s.ParentID] {
			t.Fatalf("span %s has orphan parent %s", s.Name, s.ParentID)
		}
	}
	if byName["rung.full"].Attrs["tier"] != "full" {
		t.Fatalf("attrs lost: %v", byName["rung.full"].Attrs)
	}
}

func TestSpanCapBounds(t *testing.T) {
	tr, root := NewTrace("root")
	ctx := ContextWith(context.Background(), tr, root)
	for i := 0; i < maxSpans+50; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	root.End()
	snap := tr.Snapshot()
	if len(snap.Spans) != maxSpans {
		t.Fatalf("span buffer grew to %d, cap is %d", len(snap.Spans), maxSpans)
	}
	if snap.Dropped != 51 { // 50 over cap + root already counted one slot
		t.Fatalf("dropped = %d, want 51", snap.Dropped)
	}
}

func TestRingEviction(t *testing.T) {
	c := NewCollector(3, 0, 1)
	var ids []string
	for i := 0; i < 5; i++ {
		_, tr, root := c.Start(context.Background(), "r")
		c.Finish(tr, root)
		ids = append(ids, tr.ID())
	}
	for _, old := range ids[:2] {
		if _, ok := c.Get(old); ok {
			t.Fatalf("evicted trace %s still retrievable", old)
		}
	}
	for _, fresh := range ids[2:] {
		if _, ok := c.Get(fresh); !ok {
			t.Fatalf("recent trace %s evicted early", fresh)
		}
	}
	st := c.Stats()
	if st.Ring != 3 || st.Evicted != 2 || st.Kept != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSamplingKeepsSlowTraces(t *testing.T) {
	// Keep 1-in-1000 fast traces, but always keep traces >= 1ns (i.e. all
	// that take any time). With a 0 threshold nothing is slow-exempt.
	c := NewCollector(64, 0, 1000)
	var sampledOut int
	for i := 0; i < 10; i++ {
		_, tr, root := c.Start(context.Background(), "fast")
		c.Finish(tr, root)
		if _, ok := c.Get(tr.ID()); !ok {
			sampledOut++
		}
	}
	if sampledOut != 10 {
		t.Fatalf("fast traces kept despite 1-in-1000 sampling: %d dropped, want 10", sampledOut)
	}

	slow := NewCollector(64, time.Nanosecond, 1000)
	_, tr, root := slow.Start(context.Background(), "slow")
	time.Sleep(time.Millisecond)
	slow.Finish(tr, root)
	if _, ok := slow.Get(tr.ID()); !ok {
		t.Fatalf("slow trace sampled out despite threshold")
	}
	if st := slow.Stats(); st.Kept != 1 {
		t.Fatalf("slow stats = %+v", st)
	}
}

func TestSubscribeStream(t *testing.T) {
	c := NewCollector(8, 0, 1)
	id, ch := c.Subscribe(4)
	_, tr, root := c.Start(context.Background(), "r")
	c.Finish(tr, root)
	select {
	case snap := <-ch:
		if snap.TraceID != tr.ID() {
			t.Fatalf("streamed trace id %s, want %s", snap.TraceID, tr.ID())
		}
	case <-time.After(time.Second):
		t.Fatalf("no trace streamed")
	}
	c.Unsubscribe(id)
	if _, open := <-ch; open {
		t.Fatalf("channel not closed by Unsubscribe")
	}

	// A full subscriber buffer drops, never blocks.
	_, full := c.Subscribe(1)
	for i := 0; i < 3; i++ {
		_, tr, root := c.Start(context.Background(), "r")
		c.Finish(tr, root)
	}
	_ = full
	if st := c.Stats(); st.SubDropped != 2 {
		t.Fatalf("dropped = %d, want 2", st.SubDropped)
	}

	c.Close()
	if _, _, root := c.Start(context.Background(), "after-close"); root != nil {
		// Start still works (collector only refuses retention), just ensure
		// Finish after Close doesn't panic or deliver.
		root.End()
	}
}

func TestConcurrentSpansRace(t *testing.T) {
	// A request that times out abandons its worker, which keeps appending
	// spans while the collector serializes. Exercise that interleaving.
	c := NewCollector(16, 0, 1)
	ctx, tr, root := c.Start(context.Background(), "race")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, sp := StartSpan(ctx, "worker")
				sp.SetAttr("i", "x")
				sp.End()
			}
		}()
	}
	for i := 0; i < 20; i++ {
		tr.Snapshot()
	}
	wg.Wait()
	c.Finish(tr, root)
	if _, ok := c.Get(tr.ID()); !ok {
		t.Fatalf("trace lost")
	}
}

func TestNilCollector(t *testing.T) {
	var c *Collector
	ctx, tr, root := c.Start(context.Background(), "r")
	if tr != nil || root != nil {
		t.Fatalf("nil collector started a trace")
	}
	c.Finish(tr, root)
	if _, ok := c.Get("x"); ok {
		t.Fatalf("nil collector returned a trace")
	}
	_, ch := c.Subscribe(1)
	if _, open := <-ch; open {
		t.Fatalf("nil collector subscribe channel not closed")
	}
	c.Unsubscribe(0)
	c.Close()
	if st := c.Stats(); st.RingCap != 0 {
		t.Fatalf("nil collector stats = %+v", st)
	}
	if NewCollector(0, 0, 1) != nil || NewCollector(-1, 0, 1) != nil {
		t.Fatalf("non-positive ring cap should disable the collector")
	}
	_ = ctx
}

// BenchmarkStartSpanDisabled is the zero-cost-when-disabled proof: one
// context lookup, no allocations, single-digit nanoseconds.
func BenchmarkStartSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "x")
		sp.End()
	}
}

// BenchmarkStartSpanEnabled prices an enabled span: two small allocations
// (span + derived context) and two mutex acquisitions.
func BenchmarkStartSpanEnabled(b *testing.B) {
	c := NewCollector(4, 0, 1)
	ctx, _, _ := c.Start(context.Background(), "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "x")
		sp.End()
		if i%maxSpans == maxSpans-2 {
			b.StopTimer()
			ctx, _, _ = c.Start(context.Background(), "bench")
			b.StartTimer()
		}
	}
}
