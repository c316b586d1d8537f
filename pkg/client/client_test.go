package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"merlin/internal/service"
)

// fastClient returns a client with near-zero backoff so retry tests run in
// milliseconds.
func fastClient(url string, retries int) *Client {
	return New(url,
		WithMaxRetries(retries),
		WithBackoff(time.Millisecond, 4*time.Millisecond),
		WithSeed(1))
}

func errJSON(w http.ResponseWriter, status int, code string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(service.ErrorBody{Error: "synthetic " + code, Code: code})
}

func TestRetriesUntilSuccess(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			errJSON(w, http.StatusTooManyRequests, "queue_full")
			return
		}
		json.NewEncoder(w).Encode(service.RouteResponse{Net: "ok"})
	}))
	defer ts.Close()

	resp, err := fastClient(ts.URL, 4).Route(context.Background(), &service.RouteRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Net != "ok" {
		t.Fatalf("resp.Net = %q", resp.Net)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (two 429s then success)", got)
	}
}

func TestNoRetryOnVerdictStatuses(t *testing.T) {
	for _, tc := range []struct {
		status int
		code   string
	}{
		{http.StatusBadRequest, "bad_request"},
		{http.StatusRequestEntityTooLarge, "payload_too_large"},
		{http.StatusUnprocessableEntity, "budget_exceeded"},
		{http.StatusInternalServerError, "internal"},
		{http.StatusGatewayTimeout, "timeout"},
	} {
		t.Run(tc.code, func(t *testing.T) {
			var calls atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				errJSON(w, tc.status, tc.code)
			}))
			defer ts.Close()

			_, err := fastClient(ts.URL, 4).Route(context.Background(), &service.RouteRequest{})
			var apiErr *APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("want *APIError, got %v", err)
			}
			if apiErr.Status != tc.status || apiErr.Code != tc.code {
				t.Fatalf("got %d %q, want %d %q", apiErr.Status, apiErr.Code, tc.status, tc.code)
			}
			if got := calls.Load(); got != 1 {
				t.Fatalf("verdict status retried: server saw %d calls", got)
			}
		})
	}
}

func TestGivesUpAfterMaxRetries(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		errJSON(w, http.StatusServiceUnavailable, "shutting_down")
	}))
	defer ts.Close()

	_, err := fastClient(ts.URL, 2).Route(context.Background(), &service.RouteRequest{})
	if err == nil {
		t.Fatal("want error after retries exhausted")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("give-up error does not unwrap to the last 503: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (initial + 2 retries)", got)
	}
}

func TestHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	var gap atomic.Int64
	var last atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now().UnixNano()
		if prev := last.Swap(now); prev != 0 {
			gap.Store(now - prev)
		}
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			errJSON(w, http.StatusTooManyRequests, "queue_full")
			return
		}
		json.NewEncoder(w).Encode(service.RouteResponse{Net: "ok"})
	}))
	defer ts.Close()

	// Backoff alone would wait ~1ms; the server's hint demands 1s. The
	// observed gap proves which one won.
	start := time.Now()
	if _, err := fastClient(ts.URL, 2).Route(context.Background(), &service.RouteRequest{}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("client waited %v, Retry-After demanded >= 1s", elapsed)
	}
	if g := time.Duration(gap.Load()); g < 900*time.Millisecond {
		t.Fatalf("gap between attempts %v, want >= ~1s", g)
	}
}

func TestContextCancelsBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		errJSON(w, http.StatusTooManyRequests, "queue_full")
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := fastClient(ts.URL, 4).Route(ctx, &service.RouteRequest{})
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded in chain, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("client slept %v through a canceled context", elapsed)
	}
}

func TestHealthzDoesNotRetry(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		errJSON(w, http.StatusServiceUnavailable, "shutting_down")
	}))
	defer ts.Close()

	err := fastClient(ts.URL, 4).Healthz(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("want 503 APIError, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("healthz retried: %d calls", calls.Load())
	}
}

func TestAPIErrorFromNonJSONBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bare proxy text", http.StatusBadGateway)
	}))
	defer ts.Close()

	_, err := fastClient(ts.URL, 0).Route(context.Background(), &service.RouteRequest{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.Status != http.StatusBadGateway || apiErr.Message != "bare proxy text" {
		t.Fatalf("got %d %q", apiErr.Status, apiErr.Message)
	}
	if apiErr.Code != "" {
		t.Fatalf("invented a code for a non-JSON body: %q", apiErr.Code)
	}
}

func TestRetriesTransportErrors(t *testing.T) {
	// A server that is down for the first attempts: bind a listener, close
	// it, and point the client at the dead address — every attempt is a
	// transport error, so the client must try maxRetries+1 times then give up.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close()

	start := time.Now()
	_, err := fastClient(url, 3).Route(context.Background(), &service.RouteRequest{})
	if err == nil {
		t.Fatal("want transport failure")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("gave up after %v, backoff misconfigured", elapsed)
	}
}

// TestDeadlineHeaderPropagated: a context deadline is forwarded to the
// server as X-Merlin-Deadline-Ms, recomputed per attempt so retries carry
// the shrinking remainder, and omitted when the context has no deadline.
func TestDeadlineHeaderPropagated(t *testing.T) {
	var calls atomic.Int32
	var headers [2]string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= 2 {
			headers[n-1] = r.Header.Get(service.DeadlineHeader)
		}
		if n == 1 {
			errJSON(w, http.StatusTooManyRequests, "queue_full")
			return
		}
		json.NewEncoder(w).Encode(service.RouteResponse{Net: "ok"})
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := fastClient(ts.URL, 4).Route(ctx, &service.RouteRequest{}); err != nil {
		t.Fatal(err)
	}
	var ms [2]int64
	for i, h := range headers {
		v, err := strconv.ParseInt(h, 10, 64)
		if err != nil || v <= 0 {
			t.Fatalf("attempt %d: deadline header %q, want positive integer ms", i+1, h)
		}
		ms[i] = v
	}
	if ms[1] > ms[0] {
		t.Fatalf("retry advertised more time than the first attempt: %d then %d ms", ms[0], ms[1])
	}

	// No deadline on the context — no header on the wire.
	calls.Store(0)
	headers = [2]string{"unset", "unset"}
	if _, err := fastClient(ts.URL, 0).Route(context.Background(), &service.RouteRequest{}); err == nil {
		_ = err // single 429 without retries errors; either way the header was recorded
	}
	if headers[0] != "" {
		t.Fatalf("deadline header sent without a context deadline: %q", headers[0])
	}
}
