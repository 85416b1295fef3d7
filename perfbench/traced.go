package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/vecmath"
)

// runTraced is the traced run, the same on every workload: it covers
// every layer, so each per-layer metric has one definition. It runs
// the build ladder (the build phase by phase, then the untraced
// rne.Build it must equal), the query kernel, the in-process request
// ladder, and traced load on a replica (the serve mix) and on the
// sharded fleet (the fleet mix), whose answers it then checks.
func runTraced(cfg *config, rep *report) error {
	g, err := buildGraph(cfg.sizes)
	if err != nil {
		return err
	}
	b, err := buildLadder(cfg, rep, g)
	if err != nil {
		return err
	}
	kernelLadder(cfg, rep, b)
	p50, p99, err := libraryLatency(b, 4, cfg.seed)
	if err != nil {
		return err
	}
	addLatency(rep, "library", "light", p50, p99, 4*latencyOps)

	reg := cfg.work + "/registry"
	versions, err := publishAll(reg, b, true)
	if err != nil {
		return err
	}
	store, err := registry.Open(reg)
	if err != nil {
		return err
	}
	lt := &ladder{rep: rep}
	// The in-memory gateway's first health probe takes the rnegate
	// default 2s; start it now so the wait overlaps the other rungs.
	memGW, err := startMemGateway(store, versions[0])
	if err != nil {
		return err
	}
	defer memGW.close()
	if err := handlerLadder(cfg, lt, store, versions[0], memGW); err != nil {
		return err
	}

	stopSpin, err := startSpinner(cfg)
	if err != nil {
		return err
	}
	defer stopSpin()
	log := &spanLog{}
	clock := &kernelClock{on: &log.on}
	if err := tracedServe(cfg, rep, lt, log, clock, store, versions); err != nil {
		return err
	}
	probes := makeProbes(b.g, b.model, cfg.sizes, cfg.seed)
	if err := tracedFleet(cfg, rep, lt, log, clock, store, versions[0], probes); err != nil {
		return err
	}
	lt.shares()
	if clock.calls.Load() > 0 {
		rep.add("hybrid.kernel_under_guard_ns", "ns", float64(clock.ns.Load())/float64(clock.calls.Load()), int(clock.calls.Load()))
	}
	cov := 100 * lt.covered / lt.wall
	rep.add("trace.coverage_pct", "%", cov, lt.requests)
	rep.check(cov > 99 && cov < 101, "span coverage %.2f%% of client wall time, want 100%% (±1)", cov)
	rep.add("core.model_bytes", "bytes", float64(b.model.IndexBytes()), 1)
	return nil
}

// buildLadder trains the model phase by phase with every phase timed,
// then runs the untraced rne.Build with the same options and checks the
// two final validation errors are bit-identical.
func buildLadder(cfg *config, rep *report, g *graph.Graph) (*built, error) {
	opt := core.DefaultOptions(cfg.seed)
	tracer := telemetry.NewTracer(nil, nil)
	opt.Trace = tracer
	t0 := time.Now()
	tr, err := core.NewTrainer(g, opt)
	if err != nil {
		return nil, err
	}
	initS := time.Since(t0).Seconds()
	partS := 0.0
	for _, ph := range tracer.Report().Phases {
		if ph.Name == "partition" {
			partS += ph.DurationMS / 1e3
		}
	}
	opt = tr.Options()
	rep.add("partition.hierarchy_s", "s", partS, 1)
	rep.add("core.trainer_init_s", "s", initS-partS, 1)

	t0 = time.Now()
	if err := tr.RunHierPhaseFrom(1, nil); err != nil {
		return nil, err
	}
	hierS := time.Since(t0).Seconds()
	hierSamples := tr.SamplesUsed()
	rep.add("train.hier_phase_s", "s", hierS, 1)
	rep.add("train.hier_samples_per_s", "1/s", float64(hierSamples)/hierS, int(hierSamples))

	// Phase 2 as RunVertexPhase runs it, with sample generation
	// (Dijkstra) and SGD timed apart.
	n := int(opt.VertexSampleRatio * float64(g.NumVertices()))
	if n < 1000 {
		n = 1000
	}
	t0 = time.Now()
	samples := tr.GenVertexSamples(n)
	genS := time.Since(t0).Seconds()
	t0 = time.Now()
	for e := 0; e < opt.Epochs; e++ {
		tr.VertexStep(samples, tr.LR()/(1+0.5*float64(e)))
	}
	sgdS := time.Since(t0).Seconds()
	vertexSamples := tr.SamplesUsed() - hierSamples
	rep.add("sample.vertex_gen_s", "s", genS, len(samples))
	rep.add("train.vertex_sgd_s", "s", sgdS, 1)
	rep.add("train.vertex_samples_per_s", "1/s", float64(vertexSamples)/sgdS, int(vertexSamples))

	t0 = time.Now()
	for k := 0; k < opt.FineTuneRounds; k++ {
		tr.RunFineTuneRound(k)
	}
	ftS := time.Since(t0).Seconds()
	rep.add("core.finetune_s", "s", ftS, opt.FineTuneRounds)

	t0 = time.Now()
	val := tr.Validate()
	valS := time.Since(t0).Seconds()
	t0 = time.Now()
	tracedModel := tr.Finalize()
	finS := time.Since(t0).Seconds()
	rep.add("core.validate_s", "s", valS, val.Count)
	rep.add("build.val_mre_pct", "%", val.MeanRel*100, val.Count)
	rep.add("emb.finalize_s", "s", finS, 1)
	rep.add("build.samples_used", "count", float64(tr.SamplesUsed()), 1)

	m, st, buildS, err := buildModel(g, cfg.seed)
	if err != nil {
		return nil, err
	}
	traced := initS + hierS + genS + sgdS + ftS + valS + finS
	rep.add("build.untraced_s", "s", buildS, 1)
	rep.add("build.unattributed_s", "s", buildS-traced, 1)
	rep.check(st.Recoveries == 0, "untraced build needed %d sentinel recoveries", st.Recoveries)
	rep.check(val == st.Validation && tr.SamplesUsed() == st.SamplesUsed,
		"traced build validation %+v (%d samples) differs from rne.Build's %+v (%d samples)",
		val, tr.SamplesUsed(), st.Validation, st.SamplesUsed)
	rep.check(tracedModel.NumVertices() == m.NumVertices(), "traced model shape differs")

	lt, idx, targets, err := guardAndIndex(g, m, cfg.seed)
	if err != nil {
		return nil, err
	}
	guard, err := hybrid.New(m, lt)
	if err != nil {
		return nil, err
	}
	return &built{g: g, model: m, stats: st, lt: lt, idx: idx, guard: guard, targets: targets}, nil
}

// kernelLadder times the query kernel's layers under the library calls.
func kernelLadder(cfg *config, rep *report, b *built) {
	budget := cfg.dur(0.03)
	pairs := pairStream(b.g.NumVertices(), 4096, cfg.seed+11)
	l1, n := timePerCall(budget, len(pairs), func(i int) {
		sink += vecmath.L1(b.model.Vector(pairs[i][0]), b.model.Vector(pairs[i][1]))
	})
	rep.add("vecmath.l1_ns", "ns", l1, n)
	bounds, n := timePerCall(budget, len(pairs), func(i int) {
		lo, hi := b.lt.Bounds(pairs[i][0], pairs[i][1])
		sink += lo + hi
	})
	rep.add("alt.bounds_ns", "ns", bounds, n)
	kt := timeKernels(b, budget, cfg.seed)
	rep.add("core.estimate_ns", "ns", kt.EstimateNS, kt.Calls[0])
	rep.add("hybrid.guard_ns", "ns", kt.GuardNS, kt.Calls[1])
	rep.add("index.knn_us", "us", kt.KnnUS, kt.Calls[2])
	rep.add("vecmath.l1_share_pct", "%", 100*l1/kt.EstimateNS, n)
	rep.add("core.estimate_share_pct", "%", 100*kt.EstimateNS/kt.GuardNS, n)
	rep.add("alt.bounds_share_pct", "%", 100*bounds/kt.GuardNS, n)
	var visited, pruned float64
	q := len(pairs)
	for i := 0; i < q; i++ {
		_, st := b.idx.KNNStats(pairs[i][0], knnK)
		visited += float64(st.NodesVisited)
		pruned += float64(st.NodesPruned)
	}
	rep.add("index.knn_visited", "count", visited/float64(q), q)
	rep.add("index.knn_pruned_ratio", "ratio", pruned/(visited+pruned), q)
}

// ladder accumulates the request-ladder rungs and the span coverage.
type ladder struct {
	rep             *report
	handlerNS       float64
	gwHandlerNS     float64
	replicaClientNS float64 // client-observed /distance p50 on the replica
	fleetClientNS   float64 // client-observed /distance p50 through the fleet
	covered, wall   float64
	requests        int
	shed, timeouts  float64
}

// shares reports each request-ladder rung as a share of the rung above.
func (l *ladder) shares() {
	add := func(name string, part, whole float64) {
		if part > 0 && whole > 0 {
			l.rep.add(name, "%", 100*part/whole, 1)
		}
	}
	add("hybrid.guard_share_pct", l.rep.metrics["hybrid.guard_ns"].Value, l.handlerNS)
	add("server.handler.distance_share_pct", l.handlerNS, l.replicaClientNS)
	add("gateway.handler.distance_share_pct", l.gwHandlerNS, l.fleetClientNS)
}

// measureOp times op in a closed loop for budget and returns the
// median ns per call over batches and the mean allocations per call.
func measureOp(budget time.Duration, op func(i int)) (ns, allocs float64, calls int) {
	for i := 0; i < 64; i++ {
		op(i)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ns, calls = timePerCall(budget, 64, op)
	runtime.ReadMemStats(&ms1)
	return ns, float64(ms1.Mallocs-ms0.Mallocs) / float64(calls), calls
}

// discardWriter is a reusable http.ResponseWriter for in-process rungs.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// rewindBody is a request body the rung rewinds instead of reallocating.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// handlerRung times h.ServeHTTP over reqs round robin; every answer
// must be 200.
func handlerRung(rep *report, name string, budget time.Duration, h http.Handler, reqs []*http.Request) float64 {
	ns, allocs, calls, bad := serveInProcess(budget, h, reqs)
	rep.check(bad == 0, "%s: %d non-200 answers in process", name, bad)
	rep.add(name+"_ns", "ns", ns, calls)
	rep.add(name+"_allocs", "count", allocs, calls)
	return ns
}

// serveInProcess times h.ServeHTTP over reqs round robin with
// measureOp and counts the answers that were not 200.
func serveInProcess(budget time.Duration, h http.Handler, reqs []*http.Request) (ns, allocs float64, calls, bad int) {
	w := &discardWriter{h: http.Header{}}
	ns, allocs, calls = measureOp(budget, func(i int) {
		r := reqs[i%len(reqs)]
		if rb, ok := r.Body.(rewindBody); ok {
			rb.Seek(0, io.SeekStart)
		}
		clear(w.h)
		w.code = 0
		h.ServeHTTP(w, r)
		if w.code != 0 && w.code != http.StatusOK {
			bad++
		}
	})
	return ns, allocs, calls, bad
}

func getRequests(paths []string) []*http.Request {
	out := make([]*http.Request, len(paths))
	for i, p := range paths {
		out[i] = httptest.NewRequest("GET", p, nil)
	}
	return out
}

func batchRequests(bodies [][]byte) []*http.Request {
	out := make([]*http.Request, len(bodies))
	for i, b := range bodies {
		r := httptest.NewRequest("POST", "/batch", nil)
		r.Body = rewindBody{bytes.NewReader(b)}
		r.ContentLength = int64(len(b))
		r.Header.Set("Content-Type", "application/json")
		out[i] = r
	}
	return out
}

// dispatchBodies are /batch bodies of one source and 64 targets, with
// sources drawn by pick.
func dispatchBodies(n, count int, seed int64, pick func(v int32) bool) [][]byte {
	pairs := pairStream(n, count*(batchPairs+1)*4, seed)
	var out [][]byte
	for i := 0; len(out) < count; i++ {
		s := pairs[i][0]
		if !pick(s) {
			continue
		}
		ps := make([][2]int32, batchPairs)
		for j := range ps {
			ps[j] = [2]int32{s, pairs[(i*batchPairs+j)%len(pairs)][1]}
		}
		body, _ := json.Marshal(map[string]any{"pairs": ps})
		out = append(out, body)
	}
	return out
}

// memGateway is a region-routing gateway whose backend transport calls
// the shard replicas' handlers in process: the gateway rung without a
// network.
type memGateway struct {
	gw     *gateway.Gateway
	h      http.Handler
	shards []*server.Server
}

func (m *memGateway) close() {
	m.gw.Close()
	for _, s := range m.shards {
		s.Close()
	}
}

type memTransport map[string]http.Handler

func (t memTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h, ok := t[r.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no in-memory backend %q", r.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

func startMemGateway(store *registry.Store, version string) (*memGateway, error) {
	m := &memGateway{}
	tr := memTransport{}
	var urls []string
	var sm *registry.Set
	for k := 0; k < shardCount; k++ {
		rs, err := store.LoadShard(modelName, version, k)
		if err != nil {
			return nil, err
		}
		sm = rs
		set, err := modelSet(rs, nil)
		if err != nil {
			return nil, err
		}
		srv, err := server.NewFromSet(set, serverConfig(nil))
		if err != nil {
			return nil, err
		}
		m.shards = append(m.shards, srv)
		host := "shard" + strconv.Itoa(k) + ".mem"
		tr[host] = srv.Handler()
		urls = append(urls, "http://"+host)
	}
	gw, err := gateway.New(gatewayConfig(urls, sm.ShardMap, tr))
	if err != nil {
		return nil, err
	}
	m.gw, m.h = gw, gw.Handler()
	return m, nil
}

// waitInProcess polls the in-process gateway's /readyz until ready.
func (m *memGateway) waitReady() error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec := httptest.NewRecorder()
		m.h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		if fullyReady(rec.Code, rec.Body.Bytes()) {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("in-memory gateway not ready after 30s")
}

// handlerLadder times the in-process request rungs: the replica
// handler for /distance, /knn and /batch on the full model, /batch on a
// shard model, the shard kernel, and the gateway's /distance over
// in-memory backends.
func handlerLadder(cfg *config, lt *ladder, store *registry.Store, version string, mg *memGateway) error {
	rep := lt.rep
	budget := cfg.dur(0.04)
	rs, err := store.LoadVersion(modelName, version, registry.LoadOpts{})
	if err != nil {
		return err
	}
	set, err := modelSet(rs, nil)
	if err != nil {
		return err
	}
	srv, err := server.NewFromSet(set, serverConfig(nil))
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	n := set.Model.NumVertices()
	pairs := pairStream(n, 4096, cfg.seed+51)
	var dist, knn []string
	for _, p := range pairs {
		dist = append(dist, fmt.Sprintf("/distance?s=%d&t=%d", p[0], p[1]))
		knn = append(knn, fmt.Sprintf("/knn?s=%d&k=%d", p[0], knnK))
	}
	lt.handlerNS = handlerRung(rep, "server.handler.distance", budget, h, getRequests(dist))
	handlerRung(rep, "server.handler.knn", budget, h, getRequests(knn))
	all := func(int32) bool { return true }
	handlerRung(rep, "server.handler.batch64", budget, h, batchRequests(dispatchBodies(n, 256, cfg.seed+52, all)))

	sh0, err := store.LoadShard(modelName, version, 0)
	if err != nil {
		return err
	}
	shSet, err := modelSet(sh0, nil)
	if err != nil {
		return err
	}
	shSrv, err := server.NewFromSet(shSet, serverConfig(nil))
	if err != nil {
		return err
	}
	defer shSrv.Close()
	owned := dispatchBodies(n, 256, cfg.seed+53, sh0.Shard.Owns)
	batchNS := handlerRung(rep, "server.handler.batch64.shard", budget, shSrv.Handler(), batchRequests(owned))
	var ownedPairs [][2]int32
	for _, p := range pairStream(n, 1<<15, cfg.seed+54) {
		if sh0.Shard.Owns(p[0]) {
			ownedPairs = append(ownedPairs, p)
		}
	}
	ownedPairs = ownedPairs[:min(len(ownedPairs), 4096)]
	est, calls := timePerCall(budget, len(ownedPairs), func(i int) {
		sink += sh0.Shard.Estimate(ownedPairs[i][0], ownedPairs[i][1])
	})
	rep.add("shard.estimate_ns", "ns", est, calls)
	rep.add("shard.batch64_per_pair_ns", "ns", batchNS/batchPairs, 1)

	if err := mg.waitReady(); err != nil {
		return err
	}
	lt.gwHandlerNS = handlerRung(rep, "gateway.handler.distance", budget, mg.h, getRequests(dist))
	return nil
}

// tracedSender sends ops with a span ID, recording the client span.
func tracedSender(c *http.Client, base string, ops []httpOp, log *spanLog) sendFunc {
	return func(w int, seq int64) error {
		op := ops[seq%int64(len(ops))]
		if !log.on.Load() {
			_, err := do(c, base, op, nil)
			return err
		}
		id := log.reqSeq.Add(1)
		route, _, _ := strings.Cut(op.path, "?")
		start := nowNS()
		_, err := do(c, base, op, func(h http.Header) { h.Set(spanHeader, strconv.FormatUint(id, 10)) })
		log.add(span{req: id, kind: kindClient, route: route, start: start, end: nowNS()})
		return err
	}
}

// tracedStep runs one fixed-rate step with the spans on or off and
// returns the step and the requests joined with their spans.
func tracedStep(rep *report, lt *ladder, log *spanLog, traced bool, name string, rate float64, d time.Duration, send sendFunc) (*stepResult, []*tracedRequest) {
	log.take()
	log.on.Store(traced)
	r := runStep(rate, d, send)
	log.on.Store(false)
	countStep(rep, name, r)
	if !traced {
		return r, nil
	}
	reqs := join(log.take())
	for _, t := range reqs {
		a := attribute(t)
		lt.wall += a.wall
		lt.requests++
		if a.complete {
			lt.covered += a.covered()
		}
	}
	return r, reqs
}

// pctUS reports the q-quantile of xs (ns) in µs.
func pctUS(rep *report, name string, xs []float64, q float64) {
	sort.Float64s(xs)
	v, err := percentile(xs, q)
	if err != nil {
		rep.errorf("%s: %v", name, err)
		return
	}
	rep.add(name, "us", v/1e3, len(xs))
}

// tracedServe is the serve workload traced: a light step with the hot
// swap, then the heavy step untraced and traced, for the tracing
// overhead.
func tracedServe(cfg *config, rep *report, lt *ladder, log *spanLog, clock *kernelClock, store *registry.Store, versions []string) error {
	reload := func() (server.ModelSet, error) {
		rs, err := store.LoadLatest(modelName, registry.LoadOpts{})
		if err != nil {
			return server.ModelSet{}, err
		}
		return modelSet(rs, clock.wrap)
	}
	client := newClient()
	t0 := time.Now()
	rs, err := store.LoadVersion(modelName, versions[0], registry.LoadOpts{})
	if err != nil {
		return err
	}
	set, err := modelSet(rs, clock.wrap)
	if err != nil {
		return err
	}
	rep.add("registry.load_ms", "ms", msSince(t0), 1)
	t0 = time.Now()
	srv, err := server.NewFromSet(set, serverConfig(reload))
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := listen(log.wrap(kindReplica)(srv.Handler()))
	if err != nil {
		return err
	}
	defer ln.close()
	if err := waitReady(client, ln.url, status200); err != nil {
		return err
	}
	rep.add("server.boot_ms", "ms", msSince(t0), 1)

	ops := serveMix(set.Model.NumVertices(), cfg.seed)
	send := tracedSender(client, ln.url, ops, log)
	runStep(serveLight, 300*time.Millisecond, send)
	d := cfg.dur(0.12)
	light, _ := tracedStep(rep, lt, log, false, "serve light untraced", serveLight, d, send)
	addBestLatency(rep, "serve", light, len(ops))
	var swapMS atomic.Value
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		time.Sleep(d / 2)
		t0 := time.Now()
		v, err := srv.Reload()
		swapMS.Store(msSince(t0))
		rep.check(err == nil && v == versions[len(versions)-1], "traced hot swap: %q, %v", v, err)
	}()
	_, reqs := tracedStep(rep, lt, log, true, "serve light", serveLight, d, send)
	<-swapped
	rep.add("server.swap_ms", "ms", swapMS.Load().(float64), 1)
	var netClient, distClient []float64
	for _, t := range reqs {
		if a := attribute(t); a.complete {
			netClient = append(netClient, a.netClient)
			if t.client.route == "/distance" {
				distClient = append(distClient, a.wall)
			}
		}
	}
	pctUS(rep, "net.client_us.p50", netClient, 0.5)
	lt.replicaClientNS = medianOf(distClient)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	untraced, _ := tracedStep(rep, lt, log, false, "serve heavy untraced", serveHeavy, d, send)
	runtime.ReadMemStats(&ms1)
	done := float64(untraced.OK + untraced.Failed)
	rep.add("go.alloc_bytes_per_req", "bytes", float64(ms1.TotalAlloc-ms0.TotalAlloc)/done, int(done))
	rep.add("go.gc_per_10k_req", "count", 1e4*float64(ms1.NumGC-ms0.NumGC)/done, int(done))
	lag, err := percentile(untraced.Lag, 0.99)
	if err != nil {
		return err
	}
	rep.add("gen.lag_ms.p99", "ms", lag/1e6, len(untraced.Lag))
	p50, p99, _, err := quietest(untraced.LatBySeq)
	if err != nil {
		return err
	}
	addLatency(rep, "serve", "heavy", p50, p99, len(untraced.LatBySeq))

	traced, reqs := tracedStep(rep, lt, log, true, "serve heavy traced", serveHeavy, d, send)
	var handler []float64
	for _, t := range reqs {
		if r, ok := t.replicas[0]; ok {
			handler = append(handler, r.dur())
		}
	}
	pctUS(rep, "replica.handler_us.p50", append([]float64(nil), handler...), 0.5)
	pctUS(rep, "replica.handler_us.p99", handler, 0.99)
	p50u, _ := percentile(untraced.Latency, 0.5)
	p50t, _ := percentile(traced.Latency, 0.5)
	rep.add("trace.overhead_pct", "%", 100*(p50t-p50u)/p50u, len(traced.Latency))

	maxRPS, n := runLadder(cfg, rep, serveHeavy*1.25, serveLimit, cfg.dur(0.25), send)
	rep.add("serve.max_rps", "req/s", maxRPS, n)
	lt.shedAndTimeouts(srv.Stats())
	return nil
}

// tracedFleet is the fleet workload traced: light and heavy steps
// through the region-routing gateway, then the fleet's answer checks
// on the probe pairs.
func tracedFleet(cfg *config, rep *report, lt *ladder, log *spanLog, clock *kernelClock, store *registry.Store, version string, probes []probe) error {
	client := newClient()
	f, err := startFleet(client, store, version, fleetOpts{
		wrapReplica: log.wrap(kindReplica),
		wrapGateway: log.wrap(kindGateway),
		wrapModel:   clock.wrap,
		transport:   &spanTransport{log: log, next: http.DefaultTransport},
	})
	if err != nil {
		return err
	}
	defer f.close()
	ops := fleetMix(f.sm.NumVertices(), cfg.seed)
	send := tracedSender(client, f.gwLn.url, ops, log)
	runStep(fleetLight, 300*time.Millisecond, send)
	d := cfg.dur(0.15)
	_, reqs := tracedStep(rep, lt, log, true, "fleet light", fleetLight, d, send)
	var netBackend, distClient []float64
	for _, t := range reqs {
		if a := attribute(t); a.complete {
			netBackend = append(netBackend, a.netBackend)
			if t.client.route == "/distance" {
				distClient = append(distClient, a.wall)
			}
		}
	}
	pctUS(rep, "net.backend_us.p50", netBackend, 0.5)
	lt.fleetClientNS = medianOf(distClient)

	heavy, reqs := tracedStep(rep, lt, log, true, "fleet heavy", fleetHeavy, d, send)
	var gwDur, gwSelf []float64
	legs, batches, batchLegs := 0, 0, 0
	for _, t := range reqs {
		if t.gateway == nil {
			continue
		}
		gwDur = append(gwDur, t.gateway.dur())
		legs += len(t.legs)
		if t.client.route == "/batch" {
			batches++
			batchLegs += len(t.legs)
		}
		if a := attribute(t); a.complete {
			gwSelf = append(gwSelf, a.gwSelf)
		}
	}
	pctUS(rep, "gateway.handler_us.p50", append([]float64(nil), gwDur...), 0.5)
	pctUS(rep, "gateway.handler_us.p99", gwDur, 0.99)
	pctUS(rep, "gateway.self_us.p50", gwSelf, 0.5)
	rep.add("gateway.attempts_per_req", "ratio", float64(legs)/float64(len(reqs)), len(reqs))
	rep.add("gateway.legs_per_batch", "ratio", float64(batchLegs)/float64(max(batches, 1)), batches)

	// Cross-shard share of the pairs the heavy step sent.
	cross, pairs := 0, 0
	sent := heavy.OK + heavy.Failed
	for i := int64(0); i < sent; i++ {
		for _, p := range opPairs(ops[i%int64(len(ops))]) {
			a, _ := f.sm.ShardOf(p[0])
			b, _ := f.sm.ShardOf(p[1])
			if a != b {
				cross++
			}
			pairs++
		}
	}
	rep.add("shard.cross_ratio", "ratio", float64(cross)/float64(pairs), pairs)

	for _, s := range f.shards {
		lt.shedAndTimeouts(s.Stats())
	}
	lt.shedAndTimeouts(f.gw.Stats())
	greg := f.gw.Stats().Registry()
	rep.add("gateway.retry_hedge_total", "count", sumCounter(greg, "rne_gateway_retries_total")+sumCounter(greg, "rne_hedges_total"), 1)
	rep.add("gateway.stale_route_total", "count", sumCounter(greg, "rne_gateway_stale_routes_total"), 1)
	rep.add("resilience.shed_total", "count", lt.shed, 1)
	rep.add("resilience.timeout_total", "count", lt.timeouts, 1)
	rep.add("fleet.served_mre_pct", "%", checkFleet(cfg, rep, client, f, probes), len(probes))
	return nil
}

// opPairs returns the vertex pairs one fleet op asks for.
func opPairs(op httpOp) [][2]int32 {
	if op.body != nil {
		var b struct {
			Pairs [][2]int32 `json:"pairs"`
		}
		_ = json.Unmarshal(op.body, &b)
		return b.Pairs
	}
	var s, t int32
	fmt.Sscanf(op.path, "/distance?s=%d&t=%d", &s, &t)
	return [][2]int32{{s, t}}
}

// shedAndTimeouts adds a server's or the gateway's 429 sheds and
// deadline expiries to the ladder's health counts.
func (l *ladder) shedAndTimeouts(st *resilience.Stats) {
	l.shed += float64(st.Snapshot().Shed)
	l.timeouts += sumCounter(st.Registry(), "rne_deadline_exhausted_total")
}

// sumCounter sums every series of a counter in a metrics registry.
func sumCounter(reg *telemetry.Registry, name string) float64 {
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		return 0
	}
	total := 0.0
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (rest == "" || (rest[0] != '{' && rest[0] != ' ')) {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			total += v
		}
	}
	return total
}
