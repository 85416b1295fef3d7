// Command perfbench is the repository's benchmark. It runs one
// workload on the paper-settings model and prints every metric by name
// with its unit, then, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the root of a checkout; run.sh builds and runs it):
//
//	perfbench --workload library|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of the workload from
// an untraced run; with --trace 1 it runs the traced ladder and reports
// the per-layer metrics. A failed answer check makes the run fail with
// exit code 1. See README.md in this directory for the workloads, the
// metrics and which layer each metric belongs to.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case prepareCmd:
			os.Exit(prepareMain(os.Args[2:]))
		case spinCmd:
			os.Exit(spinMain())
		}
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	work     string // scratch directory inside the checkout
	// tamper, when set, alters served distances before they are
	// checked; the benchmark's own tests use it to prove a wrong answer
	// fails the run.
	tamper func(route string, v float64) float64
	log    io.Writer
}

func (c *config) logf(format string, args ...any) {
	fmt.Fprintf(c.log, "perfbench: "+format+"\n", args...)
}

// dur is a share of the run's measured seconds.
func (c *config) dur(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

var workloads = map[string]func(*config, *report) error{
	"library": runLibrary,
	"serve":   runServe,
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "library or serve")
	seed := fl.Int64("seed", 1, "seeds the build and every query stream")
	seconds := fl.Float64("seconds", 10, "measured seconds of the run")
	trace := fl.Int("trace", 0, "1 runs the traced ladder and reports per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (library or serve)\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if _, err := os.Stat(filepath.Join("internal", "core")); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the root of a repository checkout")
		return 2
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg := &config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		sizes: fullSizes, work: work, log: stderr,
	}
	rep := execute(cfg)
	return rep.print(cfg, stdout)
}

// execute runs the configured workload, or the traced ladder.
func execute(cfg *config) *report {
	rep := newReport()
	start := time.Now()
	var err error
	if cfg.trace {
		err = runTraced(cfg, rep)
	} else {
		err = workloads[cfg.workload](cfg, rep)
	}
	if err != nil {
		rep.errorf("%v", err)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	for _, name := range want {
		if _, ok := rep.metrics[name]; !ok && err == nil {
			rep.errorf("metric %s was not measured", name)
		}
	}
	cfg.logf("%s finished in %.1fs", cfg.workload, time.Since(start).Seconds())
	return rep
}

// endToEnd are the metrics every untraced run reports, on every
// workload.
var endToEnd = []string{
	"setup_s", "served_mre_pct", "clamp_rate",
	"estimate_ns", "guard_ns", "knn_us", "distance_handler_us", "peak_rss_mb",
}

// perLayer are the metrics every traced run reports.
var perLayer = []string{
	// Build ladder.
	"partition.hierarchy_s", "core.trainer_init_s", "train.hier_phase_s", "train.hier_samples_per_s",
	"sample.vertex_gen_s", "train.vertex_sgd_s", "train.vertex_samples_per_s", "core.finetune_s",
	"core.validate_s", "build.val_mre_pct", "emb.finalize_s", "build.samples_used", "build.untraced_s", "build.unattributed_s",
	"core.model_bytes",
	// Query kernel.
	"vecmath.l1_ns", "vecmath.l1_share_pct", "core.estimate_ns", "core.estimate_share_pct",
	"alt.bounds_ns", "alt.bounds_share_pct", "hybrid.guard_ns", "index.knn_us",
	"index.knn_visited", "index.knn_pruned_ratio",
	// Request ladder, in process.
	"hybrid.guard_share_pct",
	"server.handler.distance_ns", "server.handler.distance_allocs", "server.handler.distance_share_pct",
	"server.handler.knn_ns", "server.handler.knn_allocs",
	"server.handler.batch64_ns", "server.handler.batch64_allocs",
	"server.handler.batch64.shard_ns", "server.handler.batch64.shard_allocs",
	"shard.estimate_ns", "shard.batch64_per_pair_ns",
	"gateway.handler.distance_ns", "gateway.handler.distance_allocs", "gateway.handler.distance_share_pct",
	// Spans under load.
	"replica.handler_us.p50", "replica.handler_us.p99", "net.client_us.p50",
	"hybrid.kernel_under_guard_ns",
	"gateway.handler_us.p50", "gateway.handler_us.p99", "gateway.self_us.p50", "net.backend_us.p50",
	"gateway.attempts_per_req", "gateway.legs_per_batch", "shard.cross_ratio", "fleet.served_mre_pct",
	// Counts and health.
	"resilience.shed_total", "resilience.timeout_total", "gateway.retry_hedge_total",
	"gateway.stale_route_total", "registry.load_ms", "server.boot_ms", "server.swap_ms",
	"go.alloc_bytes_per_req", "go.gc_per_10k_req", "gen.lag_ms.p99",
	"trace.coverage_pct", "trace.overhead_pct",
	// Latency of the mix, ungated: in process at the light rate, and
	// over loopback at the light and heavy rates with the max-rate
	// ladder.
	"library.p50_ms.light", "library.p99_ms.light",
	"serve.p50_ms.light", "serve.p99_ms.light",
	"serve.p50_ms.heavy", "serve.p99_ms.heavy", "serve.max_rps",
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics, sample counts and check outcomes.
type report struct {
	metrics   map[string]metric
	samples   map[string]int
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

// add records a metric with the number of samples it rests on.
func (r *report) add(name, unit string, v float64, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

// check counts one answer check; a false ok is a failure that fails
// the run.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// errorf records a failure that is not a single answer (a crashed
// step, a missing join); it fails the run.
func (r *report) errorf(format string, args ...any) {
	r.failed++
	r.attempted++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// correct reports whether every check passed.
func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// print writes the stamp, the metric table and the result line, and
// returns the exit code.
func (r *report) print(cfg *config, out io.Writer) int {
	names := make([]string, 0, len(r.metrics))
	for n, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no NaN: report -1 and fail the run.
			r.errorf("metric %s is not a finite number", n)
			r.metrics[n] = metric{Value: -1, Unit: m.Unit}
		}
		names = append(names, n)
	}
	sort.Strings(names)
	stamp := map[string]any{
		"stamp":    hostStamp(cfg),
		"samples":  r.samples,
		"problems": r.problems,
	}
	js, _ := json.Marshal(stamp)
	fmt.Fprintln(out, string(js))
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(out, "%-40s %16.6g %-8s n=%d\n", n, m.Value, m.Unit, r.samples[n])
	}
	for _, p := range r.problems {
		fmt.Fprintf(cfg.log, "perfbench: FAILED: %s\n", p)
	}
	ok := r.correct()
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{ok, r.attempted, r.failed, r.metrics}
	js, _ = json.Marshal(res)
	fmt.Fprintln(out, string(js))
	if !ok {
		return 1
	}
	return 0
}

// hostStamp identifies the machine, toolchain and source the numbers
// came from.
func hostStamp(cfg *config) map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"host":       host,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitCommit(),
		"source":     sourceDigest(),
		"seed":       cfg.seed,
		"workload":   cfg.workload,
		"trace":      cfg.trace,
		"seconds":    cfg.seconds,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads the checkout's HEAD commit from .git, or returns
// "unknown" (the checkout the benchmark runs in may carry no git
// metadata).
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest names the source the binary was built from by a digest
// of the Go sources and module files, which a checkout without git
// metadata still has.
func sourceDigest() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			if data, err := os.ReadFile(path); err == nil {
				h.Write([]byte(path))
				h.Write(data)
			}
		}
		return nil
	})
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
