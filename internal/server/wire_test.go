package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/url"
	"testing"
)

// FuzzQueryParam checks the one-pass query parser against
// url.ParseQuery(raw).Get, for one arbitrary name and for the three
// /distance parameters parsed together.
func FuzzQueryParam(f *testing.F) {
	for _, raw := range []string{
		"s=1&t=42", "s=1&s=2&t=3", "s=%31&t=%34%32", "%73=1&t=2", "s=+1&t=2",
		"s=%2B1&t=2", "s=1;x=2&s=3&t=4", "s=1&t=2;x", "s=%zz&s=1&t=2", "s=1%&t=2",
		"&&s=1&&t=2&", "s=1=2&t=3", "s&t=2", "explain=1&explain=0&s=1&t=1", "",
	} {
		f.Add(raw, "s")
	}
	f.Add("a+b=c%20d", "a b")
	f.Add("k=%e2%82%ac", "k")
	f.Fuzz(func(t *testing.T, raw, name string) {
		want, _ := url.ParseQuery(raw)
		if got := queryParam(raw, name); got != want.Get(name) {
			t.Fatalf("queryParam(%q, %q) = %q, url.Values.Get = %q", raw, name, got, want.Get(name))
		}
		var got [3]string
		queryParams(raw, distanceParams, got[:])
		for i, n := range distanceParams {
			if got[i] != want.Get(n) {
				t.Fatalf("queryParams(%q)[%q] = %q, url.Values.Get = %q", raw, n, got[i], want.Get(n))
			}
		}
	})
}

// FuzzDistanceJSON checks the append encoder against json.Encoder on
// the map the /distance handler used to encode, for guarded and
// unguarded answers with and without the guard provenance block. A NaN
// or infinite number must leave no body, as json.Encoder does.
func FuzzDistanceJSON(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308, 1e-7, 1e-6,
		9.999999999999999e-7, 123.456, 1e20, 1e21, 9.999999999999999e20, 1e300, -1e300,
		math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(v, v/3, v*2, int32(1), int32(42), true, false, false)
	}
	f.Add(600.4416484790888, 589.3044481965219, 660.5358908763869, int32(-7), int32(1<<30), false, true, true)
	f.Fuzz(func(t *testing.T, d, lo, hi float64, s, tt int32, guarded, cross, explain bool) {
		a := distanceAnswer{S: s, T: tt, Distance: d, CrossShard: cross}
		old := map[string]any{"s": s, "t": tt, "distance": d}
		if cross {
			old["cross_shard"] = true
		}
		if guarded {
			clamped := d == lo || d == hi
			a.Guarded, a.Clamped, a.Lo, a.Hi = true, clamped, lo, hi
			old["lo"], old["hi"], old["clamped"] = lo, hi, clamped
			if explain {
				a.Guard = &guardExplanation{Raw: d, Lo: lo, Hi: hi, Clamp: "low", LoLandmark: s, HiLandmark: tt}
				old["guard"] = *a.Guard
			}
		}
		var want bytes.Buffer
		wantOK := json.NewEncoder(&want).Encode(old) == nil
		got, ok := a.appendJSON([]byte("prefix"))
		if ok != wantOK || !bytes.Equal(got[len("prefix"):], want.Bytes()) {
			t.Fatalf("appendJSON = %q, %v; json.Encoder = %q, %v", got, ok, want.Bytes(), wantOK)
		}
	})
}
