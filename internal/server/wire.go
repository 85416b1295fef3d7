package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
)

// queryParams sets vals[i] to the first value of names[i] in the raw
// query, in one pass and with url.ParseQuery(raw).Get semantics:
// segments split on '&', a segment containing ';' or a malformed
// escape is skipped, keys and values are query-unescaped ('+' is a
// space), and the first value of a key wins. It allocates only for a
// key or value that needs unescaping. names holds at most 64 names.
func queryParams(raw string, names, vals []string) {
	want := uint64(1)<<len(names) - 1
	var found uint64
	for raw != "" && found != want {
		var seg string
		seg, raw, _ = strings.Cut(raw, "&")
		if seg == "" || strings.IndexByte(seg, ';') >= 0 {
			continue
		}
		key, val, _ := strings.Cut(seg, "=")
		key, ok := queryUnescape(key)
		if !ok {
			continue
		}
		for i, name := range names {
			if key != name || found&(1<<i) != 0 {
				continue
			}
			if v, ok := queryUnescape(val); ok {
				vals[i] = v
				found |= 1 << i
			}
			break
		}
	}
}

// queryParam is queryParams for a single name.
func queryParam(raw, name string) string {
	var v [1]string
	queryParams(raw, []string{name}, v[:])
	return v[0]
}

// queryUnescape is url.QueryUnescape, without the copy when s has
// nothing to decode.
func queryUnescape(s string) (string, bool) {
	if strings.IndexByte(s, '%') < 0 && strings.IndexByte(s, '+') < 0 {
		return s, true
	}
	v, err := url.QueryUnescape(s)
	return v, err == nil
}

// distanceParams are the /distance query parameters, parsed in one
// pass by handleDistance.
var distanceParams = []string{"s", "t", "explain"}

// distanceAnswer is the /distance response body. Guarded answers add
// the certified interval and the clamp flag; explain=1 adds the guard
// and model provenance where the replica has them.
type distanceAnswer struct {
	S, T       int32
	Distance   float64
	CrossShard bool

	Guarded bool
	Clamped bool
	Lo, Hi  float64

	Guard *guardExplanation
	Model *core.Explanation
}

// appendJSON appends the answer as encoding/json encodes the
// equivalent map — keys sorted, encoding/json's float format — plus
// the newline json.Encoder ends a value with. ok is false, and b is
// returned unchanged, when a number is NaN or infinite, which
// encoding/json refuses to encode.
func (a *distanceAnswer) appendJSON(b []byte) ([]byte, bool) {
	start := len(b)
	var ok bool
	b = append(b, '{')
	if a.Guarded {
		b = append(b, `"clamped":`...)
		b = strconv.AppendBool(b, a.Clamped)
		b = append(b, ',')
	}
	if a.CrossShard {
		b = append(b, `"cross_shard":true,`...)
	}
	b = append(b, `"distance":`...)
	if b, ok = appendJSONFloat(b, a.Distance); !ok {
		return b[:start], false
	}
	if a.Guard != nil {
		b = append(b, `,"guard":`...)
		if b, ok = appendMarshal(b, a.Guard); !ok {
			return b[:start], false
		}
	}
	if a.Guarded {
		b = append(b, `,"hi":`...)
		if b, ok = appendJSONFloat(b, a.Hi); !ok {
			return b[:start], false
		}
		b = append(b, `,"lo":`...)
		if b, ok = appendJSONFloat(b, a.Lo); !ok {
			return b[:start], false
		}
	}
	if a.Model != nil {
		b = append(b, `,"model":`...)
		if b, ok = appendMarshal(b, a.Model); !ok {
			return b[:start], false
		}
	}
	b = append(b, `,"s":`...)
	b = strconv.AppendInt(b, int64(a.S), 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, int64(a.T), 10)
	return append(b, "}\n"...), true
}

// appendJSONFloat appends f in encoding/json's format: the shortest
// decimal that round-trips, in 'f' form for magnitudes in [1e-6, 1e21)
// and zero, otherwise in 'e' form with a one-digit negative exponent
// left unpadded (1e-7, not 1e-07).
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendMarshal appends json.Marshal(v), for the provenance blocks
// only explain=1 answers carry.
func appendMarshal(b []byte, v any) ([]byte, bool) {
	raw, err := json.Marshal(v)
	if err != nil {
		return b, false
	}
	return append(b, raw...), true
}

// jsonContentType is the Content-Type value of every JSON answer,
// shared read-only across responses.
var jsonContentType = []string{"application/json"}

// answerBufs recycles /distance response buffers; a body is copied out
// by the ResponseWriter before its buffer returns here.
var answerBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// writeAnswer writes a 200 with the encoded answer. Like json.Encoder,
// it writes no body when the answer holds a NaN or infinite number.
func writeAnswer(w http.ResponseWriter, a *distanceAnswer) {
	buf := answerBufs.Get().(*[]byte)
	b, ok := a.appendJSON((*buf)[:0])
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	if ok {
		w.Write(b)
	}
	*buf = b
	answerBufs.Put(buf)
}
