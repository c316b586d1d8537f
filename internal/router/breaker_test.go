package router

import (
	"testing"
	"time"

	"merlin/pkg/client"
)

func testPolicy() breakerPolicy {
	return breakerPolicy{
		threshold: 3,
		backoff:   client.NewBackoff(100*time.Millisecond, time.Second, 1),
	}
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b := &backend{id: "http://a"}
	pol := testPolicy()
	now := time.Unix(1000, 0)

	for i := 0; i < 2; i++ {
		b.recordFailure(now, pol)
		if !b.admissible(now) {
			t.Fatalf("after %d failures (threshold 3): want admissible", i+1)
		}
	}
	b.recordFailure(now, pol)
	if b.admissible(now) {
		t.Fatal("after 3 consecutive failures: want ejected")
	}
	if st := b.stats(); st.State != "open" || st.Opens != 1 {
		t.Fatalf("want open/opens=1, got %s/opens=%d", st.State, st.Opens)
	}
}

func TestBreakerHalfOpenSingleTrialThenRecover(t *testing.T) {
	b := &backend{id: "http://a"}
	pol := testPolicy()
	now := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		b.recordFailure(now, pol)
	}
	// Inside the ejection window: not admissible.
	if b.admissible(now.Add(10 * time.Millisecond)) {
		t.Fatal("inside ejection timeout: want inadmissible")
	}
	// Past the window (max delay is Base*2=200ms jittered; 2s is safely past):
	// exactly one trial ticket.
	later := now.Add(2 * time.Second)
	if !b.admissible(later) {
		t.Fatal("past ejection timeout: want one half-open trial admitted")
	}
	if b.admissible(later) {
		t.Fatal("second caller during half-open trial: want inadmissible")
	}
	if st := b.stats(); st.State != "half_open" {
		t.Fatalf("want half_open, got %s", st.State)
	}
	b.recordSuccess()
	st := b.stats()
	if st.State != "closed" || st.Recovers != 1 || st.Ejections != 0 {
		t.Fatalf("after trial success: want closed/recovers=1/ejections=0, got %+v", st)
	}
	if !b.admissible(later) {
		t.Fatal("recovered breaker: want admissible")
	}
}

func TestBreakerHalfOpenFailureReopensLonger(t *testing.T) {
	b := &backend{id: "http://a"}
	pol := testPolicy()
	now := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		b.recordFailure(now, pol)
	}
	first := b.stats().Ejections // 1
	later := now.Add(2 * time.Second)
	if !b.admissible(later) {
		t.Fatal("want half-open trial")
	}
	b.recordFailure(later, pol)
	st := b.stats()
	if st.State != "open" || st.Ejections != first+1 || st.Opens != 2 {
		t.Fatalf("failed trial: want re-open with grown ejection count, got %+v", st)
	}
	// A single failure after recovery must NOT re-open (threshold resets).
	b.recordSuccess()
	b.recordFailure(later, pol)
	if got := b.stats().State; got != "closed" {
		t.Fatalf("one failure after recovery: want closed, got %s", got)
	}
}

func TestBreakerUsableDoesNotConsumeTrialTicket(t *testing.T) {
	b := &backend{id: "http://a"}
	pol := testPolicy()
	now := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		b.recordFailure(now, pol)
	}
	later := now.Add(2 * time.Second)
	if !b.usable(later) {
		t.Fatal("past timeout: usable should report true")
	}
	// usable() must not have taken the ticket: admissible still gets it.
	if !b.admissible(later) {
		t.Fatal("usable consumed the half-open trial ticket")
	}
}
