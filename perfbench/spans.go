package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hybrid"
)

// Spans of the traced run. They are recorded from the benchmark's own
// files, around the calls into each layer, and kept in memory until the
// run ends: a wrapper http.Handler around each replica's and the
// gateway's Handler(), a wrapping http.RoundTripper passed as the
// gateway's backend transport (one span per backend attempt), and a
// timing hybrid.Distancer under the guard. One request's spans share an
// ID: the client sends it in spanHeader, the gateway wrapper carries it
// in the request context, and the transport wrapper sends it on with a
// per-attempt leg number for the replica.

const spanHeader = "X-Perfbench-Span"

type spanKind uint8

const (
	kindClient spanKind = iota
	kindGateway
	kindLeg
	kindReplica
)

type span struct {
	req        uint64 // request ID, shared by every span of one request
	leg        uint64 // backend attempt, for legs and the replica spans behind them
	kind       spanKind
	route      string // client spans: the route requested
	start, end int64  // ns on the process's monotonic clock
}

func (s span) dur() float64 { return float64(s.end - s.start) }

var clockBase = time.Now()

func nowNS() int64 { return int64(time.Since(clockBase)) }

// spanLog collects spans while on.
type spanLog struct {
	on     atomic.Bool
	mu     sync.Mutex
	spans  []span
	reqSeq atomic.Uint64
	legSeq atomic.Uint64
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// take returns the spans recorded so far and clears the log.
func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.spans
	l.spans = nil
	return out
}

type spanCtxKey struct{}

func parseSpanHeader(v string) (req, leg uint64, ok bool) {
	a, b, hasLeg := strings.Cut(v, ".")
	req, err := strconv.ParseUint(a, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	if hasLeg {
		if leg, err = strconv.ParseUint(b, 10, 64); err != nil {
			return 0, 0, false
		}
	}
	return req, leg, true
}

// wrap records a span of kind around next for every request carrying a
// span ID. The gateway's span puts the ID into the request context for
// the transport wrapper.
func (l *spanLog) wrap(kind spanKind) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !l.on.Load() {
				next.ServeHTTP(w, r)
				return
			}
			req, leg, ok := parseSpanHeader(r.Header.Get(spanHeader))
			if !ok {
				next.ServeHTTP(w, r)
				return
			}
			start := nowNS()
			if kind == kindGateway {
				r = r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, req))
			}
			next.ServeHTTP(w, r)
			l.add(span{req: req, leg: leg, kind: kind, start: start, end: nowNS()})
		})
	}
}

// spanTransport records one leg span per backend attempt, from the
// request's start until its body has been read.
type spanTransport struct {
	log  *spanLog
	next http.RoundTripper
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	req, ok := r.Context().Value(spanCtxKey{}).(uint64)
	if !ok || !t.log.on.Load() {
		return t.next.RoundTrip(r)
	}
	leg := t.log.legSeq.Add(1)
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, fmt.Sprintf("%d.%d", req, leg))
	start := nowNS()
	done := func() { t.log.add(span{req: req, leg: leg, kind: kindLeg, start: start, end: nowNS()}) }
	resp, err := t.next.RoundTrip(r)
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: done}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// kernelClock accumulates the time the guard spends in the model.
type kernelClock struct {
	on    *atomic.Bool
	calls atomic.Int64
	ns    atomic.Int64
}

// timedModel is the timing hybrid.Distancer passed to hybrid.New.
type timedModel struct {
	hybrid.Distancer
	clock *kernelClock
}

func (m timedModel) Estimate(s, t int32) float64 {
	if !m.clock.on.Load() {
		return m.Distancer.Estimate(s, t)
	}
	t0 := nowNS()
	v := m.Distancer.Estimate(s, t)
	m.clock.ns.Add(nowNS() - t0)
	m.clock.calls.Add(1)
	return v
}

func (c *kernelClock) wrap(d hybrid.Distancer) hybrid.Distancer { return timedModel{d, c} }

// tracedRequest is one client request joined with the spans it caused.
type tracedRequest struct {
	client   span
	gateway  *span
	legs     []span
	replicas map[uint64]span // by leg (0 for a replica called directly)
}

// join groups spans by request ID. Only requests with a client span
// are returned.
func join(spans []span) []*tracedRequest {
	by := map[uint64]*tracedRequest{}
	get := func(id uint64) *tracedRequest {
		t := by[id]
		if t == nil {
			t = &tracedRequest{replicas: map[uint64]span{}}
			by[id] = t
		}
		return t
	}
	for _, s := range spans {
		t := get(s.req)
		switch s.kind {
		case kindClient:
			t.client = s
		case kindGateway:
			s := s
			t.gateway = &s
		case kindLeg:
			t.legs = append(t.legs, s)
		case kindReplica:
			t.replicas[s.leg] = s
		}
	}
	out := make([]*tracedRequest, 0, len(by))
	for _, t := range by {
		if t.client.end != 0 {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].client.req < out[j].client.req })
	return out
}

// attribution is one request's wall time split into disjoint self
// times along its critical path: the client's own network and queueing
// (client minus the first server span), the gateway's self time
// (gateway span minus the union of its backend legs), fan-out skew
// (union of legs minus the last-finishing leg), the backend network
// (that leg minus its replica span) and the replica. They sum to the
// client's wall time when every span nests inside its parent; a span
// sticking out of its parent makes a negative part, clamped to zero,
// and pushes coverage above 100%.
type attribution struct {
	wall, netClient, gwSelf, skew, netBackend, replica float64
	complete                                           bool
}

func (a attribution) covered() float64 {
	return clamp0(a.netClient) + clamp0(a.gwSelf) + clamp0(a.skew) + clamp0(a.netBackend) + clamp0(a.replica)
}

func clamp0(x float64) float64 { return max(x, 0) }

func attribute(t *tracedRequest) attribution {
	a := attribution{wall: t.client.dur()}
	if t.gateway == nil {
		r, ok := t.replicas[0]
		if !ok {
			return a
		}
		a.netClient, a.replica, a.complete = a.wall-r.dur(), r.dur(), true
		return a
	}
	if len(t.legs) == 0 {
		return a
	}
	crit := t.legs[0]
	for _, l := range t.legs {
		if _, ok := t.replicas[l.leg]; !ok {
			return a
		}
		if l.end > crit.end {
			crit = l
		}
	}
	union := unionLength(t.legs)
	r := t.replicas[crit.leg]
	a.netClient = a.wall - t.gateway.dur()
	a.gwSelf = t.gateway.dur() - union
	a.skew = union - crit.dur()
	a.netBackend = crit.dur() - r.dur()
	a.replica = r.dur()
	a.complete = true
	return a
}

// unionLength is the total length covered by the spans' intervals.
func unionLength(spans []span) float64 {
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var total, curS, curE int64
	for i, s := range iv {
		if i == 0 || s.start > curE {
			total += curE - curS
			curS, curE = s.start, s.end
			continue
		}
		curE = max(curE, s.end)
	}
	total += curE - curS
	return float64(total)
}
