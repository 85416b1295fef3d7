package telemetry

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"net/http"
)

// RequestIDHeader is the header request IDs arrive on and are echoed
// back through, so callers and upstream proxies can correlate logs
// across services.
const RequestIDHeader = "X-Request-Id"

type requestIDKey struct{}

// requestIDCtx is the context the RequestID middleware hands down. It
// is the request's one allocation for its ID: the context, the ID and
// the one-element header value echoing it share it.
type requestIDCtx struct {
	context.Context
	id     string
	header [1]string
}

func (c *requestIDCtx) Value(key any) any {
	if _, ok := key.(requestIDKey); ok {
		return c
	}
	return c.Context.Value(key)
}

// WithRequestID attaches a request ID to the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return &requestIDCtx{Context: ctx, id: id}
}

// RequestIDFrom returns the context's request ID, or "" when none was
// attached (e.g. the middleware is not installed).
func RequestIDFrom(ctx context.Context) string {
	if c, ok := ctx.Value(requestIDKey{}).(*requestIDCtx); ok {
		return c.id
	}
	return ""
}

// newRequestID mints 16 random hex digits. IDs correlate log lines and
// are not secrets (a client may choose its own), so the runtime's
// generator serves; it cannot fail and takes no lock.
func newRequestID() string {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], rand.Uint64())
	var h [16]byte
	hex.Encode(h[:], b[:])
	return string(h[:])
}

// sanitizeRequestID accepts a client-supplied ID only if it is short
// and printable-safe; anything else is discarded so log injection via
// the header is impossible.
func sanitizeRequestID(s string) string {
	if len(s) == 0 || len(s) > 64 {
		return ""
	}
	for _, r := range s {
		ok := r == '-' || r == '_' || r == '.' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !ok {
			return ""
		}
	}
	return s
}

// RequestID is middleware that accepts a well-formed X-Request-Id from
// the client (or mints a fresh one), echoes it on the response, and
// stores it in the request context for access logging.
func RequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// RequestIDHeader is canonical, so the map is indexed directly,
		// without Get's canonicalization.
		var id string
		if v := r.Header[RequestIDHeader]; len(v) > 0 {
			id = sanitizeRequestID(v[0])
		}
		if id == "" {
			id = newRequestID()
		}
		c := &requestIDCtx{Context: r.Context(), id: id}
		c.header[0] = id
		w.Header()[RequestIDHeader] = c.header[:]
		next.ServeHTTP(w, r.WithContext(c))
	})
}
