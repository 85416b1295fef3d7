package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/hybrid"
	"repro/internal/server"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 25

// The request mix every workload's pair stream uses for /distance-like
// and /knn-like operations: one in ten is a kNN query.
const knnEvery = 10

// libOp is one in-process library call of the mix.
type libOp struct {
	knn  bool
	s, t int32
}

func libOps(n int, count int, seed int64) []libOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]libOp, count)
	for i := range ops {
		s, t := int32(rng.Intn(n)), int32(rng.Intn(n))
		if t == s {
			t = (t + 1) % int32(n)
		}
		ops[i] = libOp{knn: rng.Intn(knnEvery) == 0, s: s, t: t}
	}
	return ops
}

func (b *built) call(op libOp) {
	if op.knn {
		sink += float64(len(b.idx.KNN(op.s, knnK)))
		return
	}
	sink += b.guard.Guard(op.s, op.t).Est
}

// runLibrary is the in-process lifecycle of the README's "Typical
// use": generate the graph, rne.Build, build the ALT guard and the
// spatial index, then query on one goroutine.
func runLibrary(cfg *config, rep *report) error {
	t0 := time.Now()
	g, err := buildGraph(cfg.sizes)
	if err != nil {
		return err
	}
	genS := time.Since(t0).Seconds()
	m, st, _, err := buildModel(g, cfg.seed)
	if err != nil {
		return err
	}
	rep.check(st.Recoveries == 0, "build needed %d sentinel recoveries", st.Recoveries)

	// Set-up: graph generation, guard and index; repeated, median kept.
	var setups []float64
	var b *built
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			t0 = time.Now()
			if _, err := buildGraph(cfg.sizes); err != nil {
				return err
			}
			genS = time.Since(t0).Seconds()
		}
		t0 = time.Now()
		lt, idx, targets, err := guardAndIndex(g, m, cfg.seed)
		if err != nil {
			return err
		}
		guard, err := hybrid.New(m, lt)
		if err != nil {
			return err
		}
		setups = append(setups, genS+time.Since(t0).Seconds())
		b = &built{g: g, model: m, stats: st, lt: lt, idx: idx, guard: guard, targets: targets}
	}
	rep.add("setup_s", "s", medianOf(setups), len(setups))

	addKernels(rep, timeKernels(b, cfg.dur(0.3), cfg.seed))
	// The request path over the same model, as a replica would serve it.
	srv, err := server.NewFromSet(server.ModelSet{Model: m, Index: b.idx, Guard: b.guard, Version: "library"}, serverConfig(nil))
	if err != nil {
		return err
	}
	defer srv.Close()
	addDistanceHandler(cfg, rep, srv.Handler(), g.NumVertices())
	rep.add("peak_rss_mb", "MB", peakRSSMB(), 1)

	// Clamp rate over the uniform pair stream.
	clamped := 0
	pairs := pairStream(g.NumVertices(), 1<<16, cfg.seed+11)
	for _, p := range pairs {
		if r := b.guard.Guard(p[0], p[1]); r.ClampedLow || r.ClampedHigh {
			clamped++
		}
	}
	rep.add("clamp_rate", "ratio", float64(clamped)/float64(len(pairs)), len(pairs))

	checkLibrary(cfg, rep, b)
	return nil
}

// checkLibrary checks the library's answers: every probe's exact
// distance and guarded answer lie inside the certified interval, and
// kNN equals a brute-force top-k by Model.Estimate over the targets.
func checkLibrary(cfg *config, rep *report, b *built) {
	probes := makeProbes(b.g, b.model, cfg.sizes, cfg.seed)
	got := make([]float64, len(probes))
	exact := make([]float64, len(probes))
	for i, p := range probes {
		r := b.guard.Guard(p.S, p.T)
		est := cfg.tamperValue("guard", r.Est)
		got[i], exact[i] = est, p.Exact
		rep.check(within(p.Exact, r.Lo, r.Hi), "pair (%d,%d): exact %v outside [%v,%v]", p.S, p.T, p.Exact, r.Lo, r.Hi)
		rep.check(within(est, r.Lo, r.Hi), "pair (%d,%d): guarded answer %v outside [%v,%v]", p.S, p.T, est, r.Lo, r.Hi)
	}
	rep.add("served_mre_pct", "%", meanRelPct(got, exact), len(probes))
	for i := 0; i < cfg.sizes.KNNChecks && i < len(probes); i++ {
		s := probes[i*len(probes)/cfg.sizes.KNNChecks].S
		res := b.idx.KNN(s, knnK)
		want := bruteKNN(b.model, b.targets, s, knnK)
		ok := len(res) == len(want)
		for j := 0; ok && j < len(res); j++ {
			d := cfg.tamperValue("knn", b.model.Estimate(s, res[j]))
			ok = within(d, want[j], want[j])
		}
		rep.check(ok, "knn(%d,%d) disagrees with brute force", s, knnK)
	}
}

// tamperValue applies the test-only answer tamper hook.
func (c *config) tamperValue(route string, v float64) float64 {
	if c.tamper == nil {
		return v
	}
	return c.tamper(route, v)
}

func addKernels(rep *report, kt kernelTimes) {
	rep.add("estimate_ns", "ns", kt.EstimateNS, kt.Calls[0])
	rep.add("guard_ns", "ns", kt.GuardNS, kt.Calls[1])
	rep.add("knn_us", "us", kt.KnnUS, kt.Calls[2])
}

// addLatency reports p50 and p99, given in ns, in ms, as
// <prefix>.p50_ms.<step> and <prefix>.p99_ms.<step>.
func addLatency(rep *report, prefix, step string, p50, p99 float64, samples int) {
	rep.add(prefix+".p50_ms."+step, "ms", p50/1e6, samples)
	rep.add(prefix+".p99_ms."+step, "ms", p99/1e6, samples)
}

// libraryLatency paces the serve mix in process at the serve
// workload's light rate: each of latencyOps calls is made reps times
// and keeps its fastest time, which, like the fastest batch of the
// kernel loops, strips most interference from other tenants. It
// returns the p50 and p99 of those fastest times in ns.
func libraryLatency(b *built, reps int, seed int64) (p50, p99 float64, err error) {
	ops := libOps(b.g.NumVertices(), latencyOps, seed+21)
	best := pacedBestOf(serveLight, len(ops), reps, func(i int) { b.call(ops[i]) })
	sort.Float64s(best)
	p99, err = percentile(best, 0.99)
	return median(best), p99, err
}

// latencyOps is the number of distinct calls or requests of a latency
// step, each made many times: 1,000 leave 10 beyond the p99.
const latencyOps = 1000

// pacedBestOf makes reps rounds of the calls op(0..n-1), paced at rate
// per second on one locked goroutine, and returns each call's fastest
// time in ns.
func pacedBestOf(rate float64, n, reps int, op func(i int)) []float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	interval := float64(time.Second) / rate
	best := make([]float64, n)
	for i := range best {
		best[i] = math.Inf(1)
	}
	start := time.Now()
	for k := 0; k < n*reps; k++ {
		due := start.Add(time.Duration(float64(k) * interval))
		if wait := time.Until(due); wait > 0 {
			sleepPrecise(wait)
		}
		t0 := time.Now()
		op(k % n)
		best[k%n] = min(best[k%n], float64(time.Since(t0)))
	}
	return best
}
