package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/alt"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hybrid"
	"repro/internal/index"
	"repro/internal/shard"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the testdata/*_golden.json corpora from the current handlers")

const (
	goldenPath         = "testdata/distance_golden.json"
	batchKNNGoldenPath = "testdata/batch_knn_golden.json"
)

// goldenCase is one frozen exchange: the request URI sent to one of
// the corpus servers and the exact answer it must produce. Request,
// when set, is the JSON body of a POST; otherwise the query is a GET.
type goldenCase struct {
	Server      string `json:"server"` // "full", "guarded", "indexed" or "shard"
	Query       string `json:"query"`
	Request     string `json:"request,omitempty"`
	Status      int    `json:"status"`
	ContentType string `json:"content_type"`
	ShardOwner  string `json:"shard_owner,omitempty"`
	Body        string `json:"body"`
}

// corpusSets builds the three corpus model sets over an 8x8 grid with
// seed 1: an unguarded full model, the same model under an 8-landmark
// ALT guard, and shard 0 of a two-way level-1 cut with its region
// guard. It also picks the shard-0 vertices the shard cases query.
func corpusSets(tb testing.TB) (map[string]ModelSet, goldenShard) {
	tb.Helper()
	g, err := gen.Grid(8, 8, gen.DefaultConfig(1))
	if err != nil {
		tb.Fatal(err)
	}
	opt := core.DefaultOptions(1)
	opt.Dim = 8
	opt.Epochs = 2
	opt.VertexSampleRatio = 10
	opt.FineTuneRounds = 1
	opt.HierSampleCap = 2000
	opt.ValidationPairs = 50
	m, _, err := core.Build(g, opt)
	if err != nil {
		tb.Fatal(err)
	}
	lt, err := alt.Build(g, 8, 1)
	if err != nil {
		tb.Fatal(err)
	}
	guard, err := hybrid.New(m, lt)
	if err != nil {
		tb.Fatal(err)
	}
	sp, err := shard.Cut(m, lt, shard.Config{CutLevel: 1, Shards: 2})
	if err != nil {
		tb.Fatal(err)
	}
	shardGuard, err := hybrid.New(sp.Shards[0], sp.Guards[0])
	if err != nil {
		tb.Fatal(err)
	}
	sh := goldenShard{in: -1, other: -1, out: -1}
	for v := int32(0); int(v) < sp.Map.NumVertices(); v++ {
		switch {
		case !sp.Shards[0].Owns(v):
			if sh.out < 0 {
				sh.out = v
			}
		case sh.in < 0:
			sh.in = v
		case sh.other < 0:
			sh.other = v
		}
	}
	if sh.in < 0 || sh.other < 0 || sh.out < 0 {
		tb.Fatal("cut did not give shard 0 two vertices and leave it one")
	}
	return map[string]ModelSet{
		"full":    {Model: m, Version: "golden"},
		"guarded": {Model: m, Guard: guard, Version: "golden"},
		"shard":   {Shard: sp.Shards[0], Guard: shardGuard, Version: "golden"},
	}, sh
}

// corpusHandlers serves each corpus set with the default Config.
func corpusHandlers(tb testing.TB) (map[string]http.Handler, goldenShard) {
	tb.Helper()
	sets, sh := corpusSets(tb)
	hs := make(map[string]http.Handler, len(sets))
	for name, set := range sets {
		srv, err := NewFromSet(set, Config{})
		if err != nil {
			tb.Fatal(err)
		}
		hs[name] = srv.Handler()
	}
	return hs, sh
}

// goldenShard names the shard-0 vertices the shard cases query: two it
// owns and one it does not.
type goldenShard struct{ in, other, out int32 }

// pairQuery is the /distance request URI for (s, t).
func pairQuery(s, t int32) string {
	return "/distance?s=" + strconv.Itoa(int(s)) + "&t=" + strconv.Itoa(int(t))
}

// goldenQueries lists the corpus requests. Every replica answers the
// generic set, which covers each 400 body and the url.Values.Get
// corner cases (first value wins, percent and '+' decoding, ';'
// segments skipped, malformed escapes skipped); the shard replica also
// answers an owned, a cross-shard and a misdirected pair.
func goldenQueries(sh goldenShard) []goldenCase {
	generic := []string{
		"/distance?s=1&t=42",
		"/distance?s=0&t=63",
		"/distance?s=5&t=5",
		"/distance?s=17&t=9&explain=1",
		"/distance?s=17&t=9&explain=true",
		"/distance?s=17&t=9&explain=0",
		"/distance?s=17&t=9&explain=1&explain=0",
		"/distance?s=17&t=9&explain=yes",
		"/distance",
		"/distance?t=42",
		"/distance?s=1",
		"/distance?s=&t=2",
		"/distance?s&t=2",
		"/distance?S=1&t=2",
		"/distance?s=x&t=1",
		"/distance?s=1&t=1.5",
		"/distance?s=99999999999999999999&t=1",
		"/distance?s=-1&t=1",
		"/distance?s=1&t=64",
		"/distance?s=1&s=2&t=3",
		"/distance?s=%31&t=%34%32",
		"/distance?%73=1&t=2",
		"/distance?s=+1&t=2",
		"/distance?s=%2B1&t=2",
		"/distance?s=1+&t=2",
		"/distance?s=1;x=2&s=3&t=4",
		"/distance?s=1&t=2;x",
		"/distance?s=%zz&s=1&t=2",
		"/distance?s=1%&t=2",
		"/distance?&&s=1&&t=2&",
		"/distance?s=1=2&t=3",
	}
	var cases []goldenCase
	for _, server := range []string{"full", "guarded", "shard"} {
		for _, q := range generic {
			cases = append(cases, goldenCase{Server: server, Query: q})
		}
	}
	for _, q := range []string{
		pairQuery(sh.in, sh.other),
		pairQuery(sh.in, sh.other) + "&explain=1",
		pairQuery(sh.in, sh.out),
		pairQuery(sh.in, sh.out) + "&explain=1",
		pairQuery(sh.out, sh.in),
	} {
		cases = append(cases, goldenCase{Server: "shard", Query: q})
	}
	return cases
}

// serveGolden answers c.Query on h and records the result into c.
func serveGolden(h http.Handler, c goldenCase) goldenCase {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, c.Query, nil)
	if c.Request != "" {
		req = httptest.NewRequest(http.MethodPost, c.Query, strings.NewReader(c.Request))
	}
	h.ServeHTTP(rec, req)
	c.Status = rec.Code
	c.ContentType = rec.Header().Get("Content-Type")
	c.ShardOwner = rec.Header().Get("Rne-Shard-Owner")
	c.Body = rec.Body.String()
	return c
}

// TestDistanceGoldenCorpus replays the frozen /distance corpus and
// requires every status, Content-Type, shard-owner header and body to
// match byte for byte. Regenerate with -update-golden only for an
// intended change to the wire format.
func TestDistanceGoldenCorpus(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Training may fuse multiply-adds on other architectures, which
		// moves the trained floats in their last bits.
		t.Skip("corpus floats were produced on amd64")
	}
	hs, sh := corpusHandlers(t)
	checkGolden(t, goldenPath, hs, goldenQueries(sh))
}

// checkGolden serves every case on its corpus handler and compares the
// answers with the frozen corpus at path, or rewrites the corpus under
// -update-golden.
func checkGolden(t *testing.T, path string, hs map[string]http.Handler, cases []goldenCase) {
	t.Helper()
	var got []goldenCase
	for _, c := range cases {
		got = append(got, serveGolden(hs[c.Server], c))
	}
	if *updateGolden {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("corpus has %d cases, the query list %d: regenerate with -update-golden", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("case %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// batchKNNQueries lists the /batch and /knn corpus requests. The
// guarded batches mix pairs the guard clamps low ((0,6), (0,25)), clamps
// high ((0,3), (0,9)) and leaves alone, with and without explain=1; the
// shard batches do the same for owned sources with owned and
// cross-shard targets ((0,62) and (2,18) clamp low, (0,5) and (0,10)
// high) and add a misdirected batch. /knn runs on the full replica with
// a spatial index and on the shard replica, which has none.
func batchKNNQueries() []goldenCase {
	var cases []goldenCase
	add := func(server, query, request string) {
		cases = append(cases, goldenCase{Server: server, Query: query, Request: request})
	}
	const guardedPairs = `{"pairs":[[0,6],[0,3],[1,42],[0,25],[0,9],[5,5],[17,9],[63,0]]}`
	const shardPairs = `{"pairs":[[0,62],[0,5],[0,2],[2,18],[0,10],[0,1],[2,2]]}`
	for _, server := range []string{"guarded", "shard"} {
		pairs := guardedPairs
		if server == "shard" {
			pairs = shardPairs
		}
		add(server, "/batch", pairs)
		add(server, "/batch?explain=1", pairs)
		add(server, "/batch", `{"pairs":[]}`)
		add(server, "/batch", `{"pairs":[[0,64]]}`)
		add(server, "/batch", `{"pairs":[[0,1]`)
	}
	add("shard", "/batch", `{"pairs":[[0,2],[1,0]]}`)
	for _, q := range []string{
		"/knn?s=1&k=3",
		"/knn?s=17&k=5&explain=1",
		"/knn?s=63&k=32",
		"/knn?s=0&k=1",
		"/knn?s=1&k=0",
		"/knn?s=1&k=33",
		"/knn?s=64&k=3",
		"/knn",
	} {
		add("indexed", q, "")
	}
	add("shard", "/knn?s=0&k=3", "")
	return cases
}

// TestBatchKNNGoldenCorpus replays the frozen /batch and /knn corpus
// byte for byte, like TestDistanceGoldenCorpus.
func TestBatchKNNGoldenCorpus(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("corpus floats were produced on amd64")
	}
	sets, _ := corpusSets(t)
	m := sets["full"].Model
	var targets []int32
	for v := int32(0); int(v) < m.NumVertices(); v += 2 {
		targets = append(targets, v)
	}
	idx, err := index.Build(m, targets)
	if err != nil {
		t.Fatal(err)
	}
	sets["indexed"] = ModelSet{Model: m, Index: idx, Version: "golden"}
	hs := make(map[string]http.Handler, len(sets))
	for name, set := range sets {
		srv, err := NewFromSet(set, Config{})
		if err != nil {
			t.Fatal(err)
		}
		hs[name] = srv.Handler()
	}
	checkGolden(t, batchKNNGoldenPath, hs, batchKNNQueries())
}
