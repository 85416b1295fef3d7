package resilience

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// BudgetHeader carries the remaining deadline budget of a request, in
// (possibly fractional) milliseconds. A gateway derives it from the
// client's deadline, subtracts its own overhead margin, and forwards
// what is left to each backend; every tier spends from the same budget
// instead of stacking independent timeouts. A request arriving with a
// non-positive budget is answered 504 immediately — the cheapest
// possible way to abandon work nobody is waiting for.
const BudgetHeader = "X-Rne-Budget-Ms"

// ParseBudget extracts the forwarded deadline budget from r, reporting
// whether a parseable budget header was present. A zero or negative
// budget is returned as-is (the caller answers 504 without doing work).
func ParseBudget(r *http.Request) (time.Duration, bool) {
	// BudgetHeader is canonical, so the map is indexed directly,
	// without Get's canonicalization.
	v := r.Header[BudgetHeader]
	if len(v) == 0 || v[0] == "" {
		return 0, false
	}
	ms, err := strconv.ParseFloat(v[0], 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ms * float64(time.Millisecond)), true
}

// SetBudget stamps the remaining budget onto an outbound request's
// headers, rounded to microsecond precision.
func SetBudget(h http.Header, d time.Duration) {
	h.Set(BudgetHeader, strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64))
}

// retryAfterHint renders a Retry-After value of d spread by a uniform
// ±jitter fraction, so a synchronized fleet of shed clients does not
// retry in lockstep and re-saturate the replica at the same instant.
// Sub-10s hints keep two decimals (our clients parse Retry-After as a
// number); longer hints round to whole seconds.
func retryAfterHint(d time.Duration, jitter float64) string {
	secs := d.Seconds()
	if jitter > 0 {
		secs *= 1 + jitter*(2*rand.Float64()-1)
	}
	if secs < 0.01 {
		secs = 0.01
	}
	if secs < 10 {
		return strconv.FormatFloat(secs, 'f', 2, 64)
	}
	return strconv.Itoa(int(secs + 0.5))
}

// deadlineWriter buffers the handler's response, so a request that
// overran its deadline is answered 503/504 alone, never with a
// half-written body in front. It is used by one goroutine at a time:
// Deadline runs the handler inline and flushes or drops the buffer
// after it returns.
type deadlineWriter struct {
	h      http.Header
	buf    bytes.Buffer
	status int
}

// deadlineWriters recycles the buffers of finished requests.
var deadlineWriters = sync.Pool{New: func() any { return &deadlineWriter{h: make(http.Header)} }}

// maxPooledBody bounds the buffer a deadlineWriter keeps for reuse, so
// one large /batch answer does not pin its memory in the pool.
const maxPooledBody = 64 << 10

func (w *deadlineWriter) Header() http.Header { return w.h }

func (w *deadlineWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *deadlineWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(p)
}

// flushTo copies the buffered headers, status and body to dst.
func (w *deadlineWriter) flushTo(dst http.ResponseWriter) {
	h := dst.Header()
	for k, v := range w.h {
		h[k] = v
	}
	if w.status == 0 {
		w.status = http.StatusOK
	}
	dst.WriteHeader(w.status)
	dst.Write(w.buf.Bytes())
}

func (w *deadlineWriter) release() {
	clear(w.h)
	w.status = 0
	if w.buf.Cap() > maxPooledBody {
		w.buf = bytes.Buffer{}
	}
	w.buf.Reset()
	deadlineWriters.Put(w)
}

// Deadline bounds each request by the tighter of the local timeout and
// the forwarded deadline budget (BudgetHeader). When the local timeout
// passes the request is answered 503 (the replica's own limit); when
// the forwarded budget is exhausted it is answered 504 — the
// distinction lets a gateway tell "this replica is slow" from "the
// client's deadline ran out while we worked". Both carry a jittered
// Retry-After.
//
// The handler runs inline on the caller's goroutine under a context
// carrying the deadline, with its response buffered. The context is
// canceled at the deadline, so cooperative handlers abandon the work
// and return then; a handler that ignores its context gets its 503/504
// when it returns. Either way the buffered response is dropped, and
// nothing is written if the client went away first.
func Deadline(next http.Handler, local time.Duration, jitter float64, retryAfter time.Duration, st *Stats) http.Handler {
	var exhaustedLocal, exhaustedBudget *counterOrNil
	if st != nil {
		exhaustedLocal = &counterOrNil{st.reg.Counter("rne_deadline_exhausted_total",
			"Requests abandoned at their deadline, by budget source.", "source", "local")}
		exhaustedBudget = &counterOrNil{st.reg.Counter("rne_deadline_exhausted_total",
			"Requests abandoned at their deadline, by budget source.", "source", "budget")}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		budget := local
		fromBudget := false
		if b, ok := ParseBudget(r); ok {
			if b <= 0 {
				exhaustedBudget.inc()
				telemetry.TraceEvent(r.Context(), "budget_exhausted", "spent before admission")
				w.Header().Set("Retry-After", retryAfterHint(retryAfter, jitter))
				writeJSONError(w, http.StatusGatewayTimeout,
					"deadline budget exhausted before the request was admitted")
				return
			}
			if budget <= 0 || b < budget {
				budget = b
				fromBudget = true
			}
		}
		if budget <= 0 {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()
		dw := deadlineWriters.Get().(*deadlineWriter)
		defer dw.release()
		next.ServeHTTP(dw, r.WithContext(ctx))
		if ctx.Err() == nil {
			dw.flushTo(w)
			return
		}
		if context.Cause(ctx) == context.Canceled {
			// The client went away (parent context canceled): there is
			// no one to answer, so write nothing.
			telemetry.TraceEvent(ctx, "client_gone", "canceled before completion")
			return
		}
		status := http.StatusServiceUnavailable
		msg := fmt.Sprintf("request exceeded %v deadline", budget)
		if fromBudget {
			status = http.StatusGatewayTimeout
			msg = fmt.Sprintf("deadline budget of %v exhausted", budget)
			exhaustedBudget.inc()
			telemetry.TraceEvent(ctx, "budget_exhausted", msg)
		} else {
			exhaustedLocal.inc()
			telemetry.TraceEvent(ctx, "deadline_exceeded", msg)
		}
		w.Header().Set("Retry-After", retryAfterHint(retryAfter, jitter))
		writeJSONError(w, status, msg)
	})
}

// counterOrNil makes the deadline counters optional without nil checks
// at every increment site.
type counterOrNil struct{ c interface{ Inc() } }

func (c *counterOrNil) inc() {
	if c != nil && c.c != nil {
		c.c.Inc()
	}
}
