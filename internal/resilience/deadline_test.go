package resilience

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func stuckHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	})
}

// A forwarded budget tighter than the local timeout produces 504 (the
// client's budget ran out), not 503 (the replica's own limit).
func TestDeadlineBudgetExhaustionIs504(t *testing.T) {
	st := NewStats()
	h := Wrap(stuckHandler(), Options{Timeout: 10 * time.Second, Stats: st})
	ts := httptest.NewServer(h)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
	req.Header.Set(BudgetHeader, "30") // 30ms budget
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("budget exhaustion = %d, want 504", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if _, err := strconv.ParseFloat(ra, 64); err != nil {
		t.Fatalf("504 missing numeric Retry-After: %q", ra)
	}

	var buf strings.Builder
	st.Registry().WriteTo(&buf)
	if !strings.Contains(buf.String(), `rne_deadline_exhausted_total{source="budget"} 1`) {
		t.Fatalf("budget exhaustion not counted:\n%s", buf.String())
	}
}

// A budget already spent on arrival is answered 504 without invoking
// the handler at all.
func TestDeadlineZeroBudgetRejectedImmediately(t *testing.T) {
	invoked := false
	h := Deadline(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		invoked = true
	}), time.Second, 0, time.Second, nil)
	ts := httptest.NewServer(h)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
	req.Header.Set(BudgetHeader, "0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("zero budget = %d, want 504", resp.StatusCode)
	}
	if invoked {
		t.Fatal("handler ran for a request with no budget left")
	}
}

// The local timeout (no budget header) stays a 503, now with a
// Retry-After hint.
func TestDeadlineLocalTimeoutIs503(t *testing.T) {
	st := NewStats()
	h := Wrap(stuckHandler(), Options{Timeout: 30 * time.Millisecond, Stats: st})
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, body := get(t, ts.URL)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("local timeout = %d body %q, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("timeout 503 missing Retry-After")
	}
	var buf strings.Builder
	st.Registry().WriteTo(&buf)
	if !strings.Contains(buf.String(), `rne_deadline_exhausted_total{source="local"} 1`) {
		t.Fatalf("local exhaustion not counted:\n%s", buf.String())
	}
}

// A generous budget wider than the local timeout leaves the local
// timeout in charge (budgets can only tighten, never extend).
func TestDeadlineBudgetCannotExtendLocalTimeout(t *testing.T) {
	h := Wrap(stuckHandler(), Options{Timeout: 30 * time.Millisecond})
	ts := httptest.NewServer(h)
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
	req.Header.Set(BudgetHeader, "60000")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 from the local timeout", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("budget extended the local timeout: took %v", elapsed)
	}
}

// A handler finishing in time passes its response through unchanged,
// headers included.
func TestDeadlinePassThrough(t *testing.T) {
	h := Deadline(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Custom", "yes")
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte("done"))
	}), time.Second, 0, time.Second, nil)
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, body := get(t, ts.URL)
	if resp.StatusCode != http.StatusCreated || body != "done" || resp.Header.Get("X-Custom") != "yes" {
		t.Fatalf("pass-through mangled: %d %q %q", resp.StatusCode, body, resp.Header.Get("X-Custom"))
	}
}

// The handler's context is canceled at the deadline so cooperative
// handlers abandon their work.
func TestDeadlineCancelsHandlerContext(t *testing.T) {
	gotCancel := make(chan error, 1)
	h := Deadline(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		gotCancel <- r.Context().Err()
	}), 20*time.Millisecond, 0, time.Second, nil)
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, _ := get(t, ts.URL)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d", resp.StatusCode)
	}
	select {
	case err := <-gotCancel:
		if err != context.DeadlineExceeded {
			t.Fatalf("handler saw %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler context never canceled")
	}
}

// A handler that ignores its context runs to completion inline and is
// answered 503 when it returns: its late body is dropped, and nothing
// of it runs on after the answer.
func TestDeadlineNonCooperativeHandlerAnsweredOnReturn(t *testing.T) {
	var finished atomic.Bool
	h := Deadline(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(60 * time.Millisecond)
		w.Write([]byte("late"))
		finished.Store(true)
	}), 10*time.Millisecond, 0, time.Second, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if !finished.Load() {
		t.Fatal("answered before the handler returned")
	}
	if rec.Code != http.StatusServiceUnavailable || strings.Contains(rec.Body.String(), "late") {
		t.Fatalf("got %d %q, want a 503 without the late body", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}
}

// ParseBudget/SetBudget round-trip with sub-millisecond precision.
func TestBudgetRoundTrip(t *testing.T) {
	hdr := make(http.Header)
	SetBudget(hdr, 1234567*time.Microsecond)
	r := &http.Request{Header: hdr}
	got, ok := ParseBudget(r)
	if !ok {
		t.Fatal("budget header not parsed")
	}
	if got != 1234567*time.Microsecond {
		t.Fatalf("round trip %v, want 1.234567s", got)
	}
	if _, ok := ParseBudget(&http.Request{Header: make(http.Header)}); ok {
		t.Fatal("missing header parsed as present")
	}
	bad := make(http.Header)
	bad.Set(BudgetHeader, "not-a-number")
	if _, ok := ParseBudget(&http.Request{Header: bad}); ok {
		t.Fatal("garbage header parsed as present")
	}
}

func TestRetryAfterHintJitterBounds(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		hint := retryAfterHint(time.Second, 0.2)
		secs, err := strconv.ParseFloat(hint, 64)
		if err != nil {
			t.Fatalf("hint %q not numeric", hint)
		}
		if secs < 0.8-1e-9 || secs > 1.2+1e-9 {
			t.Fatalf("hint %v outside ±20%% of 1s", secs)
		}
		seen[hint] = true
	}
	if len(seen) < 2 {
		t.Fatal("jitter produced a constant hint")
	}
	if hint := retryAfterHint(time.Second, 0); hint != "1.00" {
		t.Fatalf("unjittered hint = %q, want 1.00", hint)
	}
	if hint := retryAfterHint(30*time.Second, 0); hint != "30" {
		t.Fatalf("long hint = %q, want whole seconds", hint)
	}
}
