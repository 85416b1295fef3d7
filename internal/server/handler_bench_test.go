package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// reuseWriter is an http.ResponseWriter reset between calls, so the
// handler chain's own allocations are all a measurement counts.
type reuseWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *reuseWriter) Header() http.Header         { return w.h }
func (w *reuseWriter) WriteHeader(code int)        { w.code = code }
func (w *reuseWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func (w *reuseWriter) reset() {
	clear(w.h)
	w.code, w.n = 0, 0
}

// handlerRung is one /distance request and the handler that answers it.
type handlerRung struct {
	name string
	h    http.Handler
	r    *http.Request
}

// distanceRungs names the /distance requests the handler benchmark and
// the allocation ceiling drive: a guarded and an unguarded full
// replica and an owned pair on a shard replica, all through
// Server.Handler() with the default Config.
func distanceRungs(tb testing.TB) []handlerRung {
	hs, sh := corpusHandlers(tb)
	return []handlerRung{
		{"guarded", hs["guarded"], httptest.NewRequest(http.MethodGet, "/distance?s=1&t=42", nil)},
		{"unguarded", hs["full"], httptest.NewRequest(http.MethodGet, "/distance?s=1&t=42", nil)},
		{"shard", hs["shard"], httptest.NewRequest(http.MethodGet, pairQuery(sh.in, sh.other), nil)},
	}
}

func BenchmarkDistanceHandler(b *testing.B) {
	for _, rung := range distanceRungs(b) {
		b.Run(rung.name, func(b *testing.B) {
			w := &reuseWriter{h: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.reset()
				rung.h.ServeHTTP(w, rung.r)
			}
			b.StopTimer()
			if w.code != http.StatusOK || w.n == 0 {
				b.Fatalf("status %d with %d body bytes", w.code, w.n)
			}
		})
	}
}

// maxDistanceAllocs is the allocation ceiling of one guarded /distance
// through the whole handler chain.
const maxDistanceAllocs = 12

func TestDistanceHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	rung := distanceRungs(t)[0]
	w := &reuseWriter{h: http.Header{}}
	allocs := testing.AllocsPerRun(500, func() {
		w.reset()
		rung.h.ServeHTTP(w, rung.r)
	})
	if w.code != http.StatusOK {
		t.Fatalf("status %d", w.code)
	}
	if allocs > maxDistanceAllocs {
		t.Fatalf("guarded /distance allocates %.1f times per request, ceiling %d", allocs, maxDistanceAllocs)
	}
	t.Logf("guarded /distance: %.1f allocs per request", allocs)
}
