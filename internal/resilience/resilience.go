// Package resilience is the production-hardening layer for the HTTP
// serving path: composable net/http middleware that keeps rneserver
// alive and well-behaved under the paper's motivating high-volume
// dispatch/range workloads. It provides panic recovery (a crashing
// handler costs one 500, not the process), per-request deadlines with
// cross-tier budget propagation (a forwarded BudgetHeader bounds the
// work a replica will attempt; exhaustion answers 504, local timeouts
// 503), an in-flight concurrency limiter — either a static cap or the
// adaptive AIMD limiter that tracks observed p99 latency and sheds by
// priority (health/admin never, /batch before /distance) — with 429 +
// jittered Retry-After, and request accounting surfaced on GET /statz
// (JSON) and GET /metrics (Prometheus text, via internal/telemetry).
package resilience

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Options configures the standard middleware stack assembled by Wrap.
// Zero values select the documented defaults; Timeout and MaxInFlight
// can be disabled explicitly with negative values.
type Options struct {
	// MaxInFlight caps concurrently-served requests; excess requests
	// are shed with 429 + Retry-After. Default 256; negative disables.
	// Ignored when Admission configures the adaptive limiter, except as
	// the adaptive limiter's Initial when that is unset.
	MaxInFlight int
	// Admission, when non-nil, replaces the static MaxInFlight cap with
	// the adaptive AIMD limiter: the concurrency limit tracks observed
	// p99 latency against Admission.TargetP99, health/admin routes are
	// never shed, and /batch sheds before /distance. An invalid config
	// falls back to the static cap (and is logged).
	Admission *AdmissionConfig
	// RetryAfter is the hint returned with shed requests (default 1s).
	RetryAfter time.Duration
	// RetryAfterJitter spreads every Retry-After hint by a uniform
	// ±fraction (default 0.2), so synchronized shed clients do not
	// retry in lockstep. Negative disables jitter.
	RetryAfterJitter float64
	// Timeout bounds each request via its context deadline; requests
	// that exceed it receive 503 — or 504 when the deadline came from a
	// forwarded BudgetHeader budget tighter than Timeout. Default 30s;
	// negative disables the local timeout (forwarded budgets still
	// apply).
	Timeout time.Duration
	// Logger receives panic reports and access logs (nil disables).
	Logger *slog.Logger
	// Stats, when non-nil, accumulates request/latency/status counters
	// for /statz and /metrics.
	Stats *Stats
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight == 0 {
		o.MaxInFlight = 256
	}
	if o.RetryAfter == 0 {
		o.RetryAfter = time.Second
	}
	if o.RetryAfterJitter == 0 {
		o.RetryAfterJitter = 0.2
	}
	if o.RetryAfterJitter < 0 {
		o.RetryAfterJitter = 0
	}
	if o.Timeout == 0 {
		o.Timeout = 30 * time.Second
	}
	return o
}

// Wrap assembles the standard production stack around next, outermost
// first: panic recovery with stats/logging, concurrency limiting
// (static or adaptive), then the per-request deadline. Recovery and
// accounting share one layer, so panics are counted as 500s and even a
// limiter bug cannot kill the process; the deadline is innermost so
// shed requests never consume a timer and the latency the adaptive
// limiter observes includes time spent at the deadline.
func Wrap(next http.Handler, o Options) http.Handler {
	o = o.withDefaults()
	h := next
	timeout := o.Timeout
	if timeout < 0 {
		timeout = 0
	}
	h = Deadline(h, timeout, o.RetryAfterJitter, o.RetryAfter, o.Stats)
	limited := false
	if o.Admission != nil {
		var reg *telemetry.Registry
		if o.Stats != nil {
			reg = o.Stats.Registry()
		}
		al, err := NewAdaptiveLimiter(*o.Admission, reg)
		if err == nil {
			h = AdaptiveLimit(h, al, o.RetryAfter, o.RetryAfterJitter, o.Stats)
			limited = true
		} else {
			telemetry.OrNop(o.Logger).Warn("adaptive admission disabled; using static cap", "error", err)
		}
	}
	if !limited && o.MaxInFlight > 0 {
		h = limiter(h, o.MaxInFlight, o.RetryAfter, o.RetryAfterJitter, o.Stats)
	}
	return Observe(h, o.Stats, o.Logger)
}

// statusRecorder captures the status code a handler wrote so the
// observing middleware can account for it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(p)
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// limiter sheds load once maxInFlight requests are already being
// served, answering 429 with a jittered Retry-After hint instead of
// queueing unboundedly. Admission is a non-blocking semaphore acquire,
// so shed requests cost O(1) regardless of saturation.
func limiter(next http.Handler, maxInFlight int, retryAfter time.Duration, jitter float64, st *Stats) http.Handler {
	sem := make(chan struct{}, maxInFlight)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			next.ServeHTTP(w, r)
		default:
			if st != nil {
				st.shed.Inc()
			}
			telemetry.TraceEvent(r.Context(), "shed",
				fmt.Sprintf("static limiter at %d in flight", maxInFlight))
			hint := retryAfterHint(retryAfter, jitter)
			w.Header().Set("Retry-After", hint)
			writeJSONError(w, http.StatusTooManyRequests,
				fmt.Sprintf("server saturated (%d requests in flight); retry after %s s", maxInFlight, hint))
		}
	})
}

// recorders recycles the status recorders Observe wraps around each
// response writer.
var recorders = sync.Pool{New: func() any { return new(statusRecorder) }}

// Observe is the outermost resilience layer. It converts a handler
// panic into a 500 response and a stack log, leaving the server alive;
// a repanic of http.ErrAbortHandler is preserved so deliberate
// connection aborts keep their stdlib semantics. It records every
// request's status and latency into st (overall and per-route
// histograms) when st is non-nil, and emits one structured access-log
// line per request, tagged with the request ID when the
// telemetry.RequestID middleware is installed, when logger is non-nil.
func Observe(next http.Handler, st *Stats, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if st != nil {
			st.inFlight.Add(1)
		}
		sr := recorders.Get().(*statusRecorder)
		*sr = statusRecorder{ResponseWriter: w}
		defer func() {
			rec := recover()
			if rec != nil && rec != http.ErrAbortHandler {
				if st != nil {
					st.panics.Inc()
				}
				if logger != nil {
					logger.Error("panic serving request",
						"method", r.Method, "path", r.URL.Path,
						"request_id", telemetry.RequestIDFrom(r.Context()),
						"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
				}
				// Only answer if the handler had not started a response;
				// otherwise the connection is already poisoned and closing
				// it is all we can do.
				if sr.status == 0 {
					writeJSONError(sr, http.StatusInternalServerError, "internal server error")
				}
			}
			elapsed := time.Since(start)
			status := sr.status
			if status == 0 {
				status = http.StatusOK
			}
			*sr = statusRecorder{}
			recorders.Put(sr)
			if st != nil {
				st.inFlight.Add(-1)
				// Observe runs inside the trace middleware, so the context
				// carries the request's span when tracing is on; its trace
				// ID becomes the latency bucket's exemplar.
				traceID := telemetry.SpanFromContext(r.Context()).ExemplarID()
				st.observe(status, elapsed, traceID)
				st.observeRoute(r.URL.Path, elapsed, traceID)
			}
			if logger != nil {
				logger.Info("request",
					"method", r.Method, "path", r.URL.Path, "status", status,
					"duration", elapsed.Round(time.Microsecond),
					"request_id", telemetry.RequestIDFrom(r.Context()))
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
		}()
		next.ServeHTTP(sr, r)
	})
}
