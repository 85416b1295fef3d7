package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"repro/internal/gateway"
	"repro/internal/hybrid"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/shard"
)

// Rates and limits. serve: one guarded full replica; fleet: K=2 region
// shards behind a region-routing gateway, loaded in the traced run.
// Both are open loops on at most maxConns connections. The heavy rates
// and the max-rate ladder run in the traced run (see README.md).
const (
	serveLight = 2000.0
	serveHeavy = 8000.0
	serveLimit = time.Millisecond
	fleetLight = 400.0
	fleetHeavy = 1500.0
	batchPairs = 64
	// ladderRungs caps the max-rate search: up to 6 rungs of x1.25 and
	// 3 bisection rungs, which resolve the rate to about 3%.
	ladderRungs  = 9
	ladderRefine = 3
)

// serverConfig is the rneserver flag defaults, with access logging,
// query logging and tracing off.
func serverConfig(reload func() (server.ModelSet, error)) server.Config {
	return server.Config{MaxInFlight: 256, RequestTimeout: 30 * time.Second, Reloader: reload}
}

// gatewayConfig is the rnegate flag defaults in region mode.
func gatewayConfig(backends []string, sm *shard.Map, tr http.RoundTripper) gateway.Config {
	return gateway.Config{
		Backends:       backends,
		ShardMap:       sm,
		VirtualNodes:   64,
		HealthInterval: 2 * time.Second,
		EjectAfter:     3,
		BackoffBase:    500 * time.Millisecond,
		BackoffMax:     15 * time.Second,
		BackendTimeout: 10 * time.Second,
		RetryBudget:    0.1,
		HedgeMinDelay:  time.Millisecond,
		HedgeMaxDelay:  250 * time.Millisecond,
		BudgetMargin:   5 * time.Millisecond,
		MaxInFlight:    256,
		RequestTimeout: 30 * time.Second,
		Transport:      tr,
	}
}

// listener is one HTTP server on 127.0.0.1.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln)
	}()
	return l, nil
}

// close shuts the server down and waits for it to exit.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

// newClient returns the load client: at most maxConns connections.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 10 * time.Second,
	}
}

// waitReady polls url's /readyz until ready accepts the answer.
func waitReady(c *http.Client, url string, ready func(status int, body []byte) bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if resp, err := c.Get(url + "/readyz"); err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if ready(resp.StatusCode, body) {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s not ready after 30s", url)
}

func status200(status int, _ []byte) bool { return status == http.StatusOK }

// fullyReady accepts a gateway that routes to every shard.
func fullyReady(status int, body []byte) bool {
	var r struct {
		Status string `json:"status"`
	}
	return status == http.StatusOK && json.Unmarshal(body, &r) == nil && r.Status == "ready"
}

// httpOp is one pre-generated request of a traffic mix.
type httpOp struct {
	method string
	path   string // path and query
	body   []byte
}

// do sends one request and drains the answer; a non-2xx status is an
// error.
func do(c *http.Client, base string, op httpOp, hdr func(http.Header)) ([]byte, error) {
	var rd io.Reader
	if op.body != nil {
		rd = bytes.NewReader(op.body)
	}
	req, err := http.NewRequest(op.method, base+op.path, rd)
	if err != nil {
		return nil, err
	}
	if op.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if hdr != nil {
		hdr(req.Header)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 || resp.StatusCode == http.StatusPartialContent {
		return body, fmt.Errorf("%s %s: status %d", op.method, op.path, resp.StatusCode)
	}
	return body, nil
}

// serveMix is the serve traffic: 90% /distance, 10% /knn?k=8 over a
// seeded uniform pair stream.
func serveMix(n int, seed int64) []httpOp {
	ops := libOps(n, latencyOps, seed+31)
	out := make([]httpOp, len(ops))
	for i, op := range ops {
		if op.knn {
			out[i] = httpOp{method: "GET", path: fmt.Sprintf("/knn?s=%d&k=%d", op.s, knnK)}
		} else {
			out[i] = httpOp{method: "GET", path: fmt.Sprintf("/distance?s=%d&t=%d", op.s, op.t)}
		}
	}
	return out
}

// fleetMix is the fleet traffic: alternating /batch and /distance. The
// batches alternate two shapes: one source with 64 targets (the
// dispatch pattern: one shard, one shared source row) and 64 random
// pairs (split across both shards and merged by the gateway).
func fleetMix(n int, seed int64) []httpOp {
	rng := rand.New(rand.NewSource(seed + 41))
	out := make([]httpOp, latencyOps)
	for i := range out {
		s := int32(rng.Intn(n))
		if i%2 == 1 {
			t := int32(rng.Intn(n))
			out[i] = httpOp{method: "GET", path: fmt.Sprintf("/distance?s=%d&t=%d", s, t)}
			continue
		}
		pairs := make([][2]int32, batchPairs)
		for j := range pairs {
			if i%4 == 0 {
				pairs[j] = [2]int32{s, int32(rng.Intn(n))}
			} else {
				pairs[j] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
			}
		}
		body, _ := json.Marshal(map[string]any{"pairs": pairs})
		out[i] = httpOp{method: "POST", path: "/batch", body: body}
	}
	return out
}

// runLight drives a serving workload's light step for the run's
// measured seconds, after a short warm-up, counting failed and unsent
// arrivals. midLight, when set, runs halfway through the step (the
// serve workload's hot swap). The step's latency is not reported here:
// on a shared host it spread too much between runs to gate a change
// (see README.md); the traced run reports it.
func runLight(cfg *config, rep *report, rate float64, send sendFunc, midLight func()) {
	runStep(rate, 300*time.Millisecond, send) // warm connections and caches
	d := cfg.dur(1)
	var swapped chan struct{}
	if midLight != nil {
		swapped = make(chan struct{})
		go func() {
			defer close(swapped)
			time.Sleep(d / 2)
			midLight()
		}()
	}
	r := runStep(rate, d, send)
	if swapped != nil {
		<-swapped
	}
	countStep(rep, "light", r)
}

// addBestLatency reports the p50 and p99, over the step's nOps
// requests, of each request's fastest latency. The mix's requests are
// sent round robin, each many times; on a host shared with other
// tenants a whole step's latency moves 2-3x from run to run with their
// load, while a request's fastest time keeps the cost of the request
// path and drops most of the host's.
func addBestLatency(rep *report, prefix string, r *stepResult, nOps int) {
	best, err := bestPerOp(r, nOps)
	if err == nil {
		var p99 float64
		if p99, err = percentile(best, 0.99); err == nil {
			addLatency(rep, prefix, "light", median(best), p99, len(r.LatBySeq))
		}
	}
	if err != nil {
		rep.errorf("%s light step: %v", prefix, err)
	}
}

// countStep adds a fixed-rate step's arrivals to the attempted count
// and its failed and unsent arrivals to the failures.
func countStep(rep *report, name string, r *stepResult) {
	rep.attempted += r.Due
	rep.failed += r.Failed + r.Unsent
	if r.Failed+r.Unsent > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%s step: %d failed, %d unsent of %d", name, r.Failed, r.Unsent, r.Due))
	}
}

// runLadder searches for the highest rate meeting limit, starting at
// start, within about budget, and returns the answered rate at the
// highest passing rung with its sample count. A failed request on any
// rung counts as a failure; arrivals a saturated rung never sent do
// not, they are how the ladder sees saturation.
func runLadder(cfg *config, rep *report, start float64, limit, budget time.Duration, send sendFunc) (float64, int) {
	lr := findMaxRate(start, limit, budget/ladderRungs, ladderRungs, ladderRefine, send)
	samples := 0
	for i, r := range lr.Rungs {
		rep.attempted += r.OK + r.Failed
		rep.failed += r.Failed
		if r.Failed > 0 {
			rep.problems = append(rep.problems, fmt.Sprintf("ladder rung %.0f/s: %d failed", r.Rate, r.Failed))
		}
		if lr.Passed[i] {
			samples = len(r.Latency)
		}
		cfg.logf("rung %.0f/s: answered %.0f/s, pass %v", r.Rate, r.Achieved(), lr.Passed[i])
	}
	return lr.MaxRPS, samples
}

// guardCounts sums the guard counters of servers: answers checked and
// answers clamped.
func guardCounts(srvs ...*server.Server) (checked, clamped int64) {
	for _, s := range srvs {
		x := s.Stats().Snapshot().Extra
		checked += x["guard_checked"]
		clamped += x["guard_clamped_low"] + x["guard_clamped_high"]
	}
	return checked, clamped
}

// distanceAnswer is a guarded /distance body.
type distanceAnswer struct {
	Distance float64 `json:"distance"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	Clamped  bool    `json:"clamped"`
}

// runServe is one guarded full replica booted from a registry version.
func runServe(cfg *config, rep *report) error {
	p, err := runPrepare(cfg)
	if err != nil {
		return err
	}
	addPrepared(rep, p)
	stopSpin, err := startSpinner(cfg)
	if err != nil {
		return err
	}
	defer stopSpin()
	store, err := registry.Open(p.Registry)
	if err != nil {
		return err
	}
	reload := func() (server.ModelSet, error) {
		rs, err := store.LoadLatest(modelName, registry.LoadOpts{})
		if err != nil {
			return server.ModelSet{}, err
		}
		return modelSet(rs, nil)
	}
	client := newClient()
	var setups []float64
	var srv *server.Server
	var boot server.ModelSet
	var ln *listener
	for i := 0; i < setupReps; i++ {
		if ln != nil {
			ln.close()
			srv.Close()
		}
		t0 := time.Now()
		rs, err := store.LoadVersion(modelName, p.Versions[0], registry.LoadOpts{})
		if err != nil {
			return err
		}
		if boot, err = modelSet(rs, nil); err != nil {
			return err
		}
		if srv, err = server.NewFromSet(boot, serverConfig(reload)); err != nil {
			return err
		}
		if ln, err = listen(srv.Handler()); err != nil {
			return err
		}
		if err := waitReady(client, ln.url, status200); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.Close()
	defer ln.close()
	rep.add("setup_s", "s", medianOf(setups), len(setups))

	ops := serveMix(boot.Model.NumVertices(), cfg.seed)
	send := func(w int, seq int64) error {
		_, err := do(client, ln.url, ops[seq%int64(len(ops))], nil)
		return err
	}
	swap := func() {
		v, err := srv.Reload()
		rep.check(err == nil && v == p.Versions[len(p.Versions)-1], "hot swap to %v: got %q, %v", p.Versions, v, err)
	}
	runLight(cfg, rep, serveLight, send, swap)
	rep.add("peak_rss_mb", "MB", peakRSSMB(), 1)

	checkServe(cfg, rep, client, ln.url, boot, p)
	checked, clamped := guardCounts(srv)
	rep.add("clamp_rate", "ratio", float64(clamped)/float64(checked), int(checked))
	// After the clamp count, so the timed calls do not enter it.
	addDistanceHandler(cfg, rep, srv.Handler(), boot.Model.NumVertices())
	return nil
}

// addDistanceHandler reports distance_handler_us: the cost of one
// /distance request through the replica's full handler chain
// (admission, parsing, the guarded estimate, JSON), called in process
// as Handler().ServeHTTP over seeded uniform pairs, fastest batch. It
// is the request path without the network, which over loopback on a
// shared host spreads too much between runs to gate.
func addDistanceHandler(cfg *config, rep *report, h http.Handler, n int) {
	var paths []string
	for _, p := range pairStream(n, 64, cfg.seed+51) { // one batch
		paths = append(paths, fmt.Sprintf("/distance?s=%d&t=%d", p[0], p[1]))
	}
	ns, _, calls, bad := serveInProcess(cfg.dur(0.1), h, getRequests(paths))
	rep.check(bad == 0, "/distance: %d non-200 answers in process", bad)
	rep.add("distance_handler_us", "us", ns/1e3, calls)
}

// checkServe probes the replica after the swap: every /distance body
// equals the in-process Guard of the boot set (so v2 answers equal
// v1's), /knn equals SpatialIndex.KNN, and /healthz reports v2.
func checkServe(cfg *config, rep *report, c *http.Client, url string, boot server.ModelSet, p *prepared) {
	got := make([]float64, len(p.Probes))
	exact := make([]float64, len(p.Probes))
	for i, pr := range p.Probes {
		exact[i] = pr.Exact
		body, err := do(c, url, httpOp{method: "GET", path: fmt.Sprintf("/distance?s=%d&t=%d", pr.S, pr.T)}, nil)
		var a distanceAnswer
		if !rep.check(err == nil && json.Unmarshal(body, &a) == nil, "probe (%d,%d): %v", pr.S, pr.T, err) {
			continue
		}
		a.Distance = cfg.tamperValue("/distance", a.Distance)
		got[i] = a.Distance
		want := boot.Guard.Guard(pr.S, pr.T)
		rep.check(a.Distance == want.Est && a.Lo == want.Lo && a.Hi == want.Hi &&
			a.Clamped == (want.ClampedLow || want.ClampedHigh),
			"/distance (%d,%d) = %+v, in-process Guard = %+v", pr.S, pr.T, a, want)
		rep.check(within(pr.Exact, a.Lo, a.Hi), "pair (%d,%d): exact %v outside [%v,%v]", pr.S, pr.T, pr.Exact, a.Lo, a.Hi)
	}
	rep.add("served_mre_pct", "%", meanRelPct(got, exact), len(got))
	for i := 0; i < cfg.sizes.KNNChecks; i++ {
		s := p.Probes[i*len(p.Probes)/cfg.sizes.KNNChecks].S
		body, err := do(c, url, httpOp{method: "GET", path: fmt.Sprintf("/knn?s=%d&k=%d", s, knnK)}, nil)
		var a struct {
			Targets   []int32   `json:"targets"`
			Distances []float64 `json:"distances"`
		}
		if !rep.check(err == nil && json.Unmarshal(body, &a) == nil, "knn probe %d: %v", s, err) {
			continue
		}
		want := boot.Index.KNN(s, knnK)
		ok := len(a.Targets) == len(want)
		for j := 0; ok && j < len(want); j++ {
			ok = a.Targets[j] == want[j] && cfg.tamperValue("/knn", a.Distances[j]) == boot.Model.Estimate(s, want[j])
		}
		rep.check(ok, "/knn?s=%d = %v, SpatialIndex.KNN = %v", s, a.Targets, want)
	}
	body, err := do(c, url, httpOp{method: "GET", path: "/healthz"}, nil)
	var h struct {
		Version string `json:"version"`
	}
	want := p.Versions[len(p.Versions)-1]
	rep.check(err == nil && json.Unmarshal(body, &h) == nil && h.Version == want,
		"/healthz after the swap reports %q, want %q (%v)", h.Version, want, err)
}

// fleet is the running K=2 sharded fleet.
type fleet struct {
	shards []*server.Server
	sets   []server.ModelSet
	lns    []*listener
	gw     *gateway.Gateway
	gwLn   *listener
	sm     *shard.Map
}

func (f *fleet) close() {
	if f.gwLn != nil {
		f.gwLn.close()
	}
	if f.gw != nil {
		f.gw.Close()
	}
	for i, l := range f.lns {
		l.close()
		f.shards[i].Close()
	}
}

// fleetOpts lets the traced run wrap the handlers, the guard's model and
// the gateway's backend transport.
type fleetOpts struct {
	wrapReplica func(http.Handler) http.Handler
	wrapGateway func(http.Handler) http.Handler
	wrapModel   func(hybrid.Distancer) hybrid.Distancer
	transport   http.RoundTripper
}

// startFleet loads both shards of version from the registry, boots a
// replica for each and a region-routing gateway over them, and waits
// until every replica and the gateway are ready.
func startFleet(c *http.Client, store *registry.Store, version string, o fleetOpts) (*fleet, error) {
	f := &fleet{}
	wrap := func(w func(http.Handler) http.Handler, h http.Handler) http.Handler {
		if w == nil {
			return h
		}
		return w(h)
	}
	var sets []*registry.Set
	for k := 0; k < shardCount; k++ {
		rs, err := store.LoadShard(modelName, version, k)
		if err != nil {
			return nil, err
		}
		sets = append(sets, rs)
	}
	f.sm = sets[0].ShardMap
	var urls []string
	for _, rs := range sets {
		set, err := modelSet(rs, o.wrapModel)
		if err != nil {
			f.close()
			return nil, err
		}
		srv, err := server.NewFromSet(set, serverConfig(nil))
		if err != nil {
			f.close()
			return nil, err
		}
		ln, err := listen(wrap(o.wrapReplica, srv.Handler()))
		if err != nil {
			srv.Close()
			f.close()
			return nil, err
		}
		f.shards, f.sets, f.lns = append(f.shards, srv), append(f.sets, set), append(f.lns, ln)
		urls = append(urls, ln.url)
	}
	for _, u := range urls {
		if err := waitReady(c, u, status200); err != nil {
			f.close()
			return nil, err
		}
	}
	gw, err := gateway.New(gatewayConfig(urls, f.sm, o.transport))
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = gw
	if f.gwLn, err = listen(wrap(o.wrapGateway, gw.Handler())); err != nil {
		f.close()
		return nil, err
	}
	if err := waitReady(c, f.gwLn.url, fullyReady); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// checkFleet probes the fleet through the gateway: every answer lies
// inside its certified interval (and so does the exact distance),
// /batch answers equal per-pair /distance answers (on every
// crossCheckEvery-th pair), and intra-shard unclamped answers equal the
// full model's estimate bit for bit. The probe batches take pairs in a
// seeded random order, so most of them split across both shards. It
// returns the mean relative error of the /batch answers.
func checkFleet(cfg *config, rep *report, c *http.Client, f *fleet, probes []probe) float64 {
	const crossCheckEvery = 4
	got := make([]float64, len(probes))
	exact := make([]float64, len(probes))
	order := rand.New(rand.NewSource(cfg.seed + 61)).Perm(len(probes))
	for off := 0; off < len(order); off += batchPairs {
		chunk := order[off:min(off+batchPairs, len(order))]
		pairs := make([][2]int32, len(chunk))
		for i, k := range chunk {
			pairs[i] = [2]int32{probes[k].S, probes[k].T}
		}
		body, _ := json.Marshal(map[string]any{"pairs": pairs})
		resp, err := do(c, f.gwLn.url, httpOp{method: "POST", path: "/batch", body: body}, nil)
		var a struct {
			Distances []float64 `json:"distances"`
			Lo        []float64 `json:"lo"`
			Hi        []float64 `json:"hi"`
		}
		if !rep.check(err == nil && json.Unmarshal(resp, &a) == nil &&
			len(a.Distances) == len(chunk) && len(a.Lo) == len(chunk) && len(a.Hi) == len(chunk),
			"probe batch at %d: %v", off, err) {
			continue
		}
		for i, k := range chunk {
			pr := probes[k]
			d := cfg.tamperValue("/batch", a.Distances[i])
			got[k], exact[k] = d, pr.Exact
			rep.check(within(d, a.Lo[i], a.Hi[i]) && within(pr.Exact, a.Lo[i], a.Hi[i]),
				"/batch (%d,%d): answer %v, exact %v, interval [%v,%v]", pr.S, pr.T, d, pr.Exact, a.Lo[i], a.Hi[i])
			if (off+i)%crossCheckEvery != 0 {
				continue
			}
			one, err := do(c, f.gwLn.url, httpOp{method: "GET", path: fmt.Sprintf("/distance?s=%d&t=%d", pr.S, pr.T)}, nil)
			var da distanceAnswer
			if !rep.check(err == nil && json.Unmarshal(one, &da) == nil, "/distance (%d,%d): %v", pr.S, pr.T, err) {
				continue
			}
			da.Distance = cfg.tamperValue("/distance", da.Distance)
			rep.check(da.Distance == d && da.Lo == a.Lo[i] && da.Hi == a.Hi[i],
				"(%d,%d): /distance %v [%v,%v] differs from /batch %v [%v,%v]", pr.S, pr.T, da.Distance, da.Lo, da.Hi, d, a.Lo[i], a.Hi[i])
			ks, _ := f.sm.ShardOf(pr.S)
			kt, _ := f.sm.ShardOf(pr.T)
			if ks == kt && !da.Clamped {
				rep.check(da.Distance == pr.Raw, "intra-shard (%d,%d): %v, full model %v", pr.S, pr.T, da.Distance, pr.Raw)
			}
		}
	}
	return meanRelPct(got, exact)
}
