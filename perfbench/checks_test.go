package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// The serve workload runs its prepare step, and serve and the traced
// run their spinner, as a child process of os.Executable(); under go
// test that is this test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case prepareCmd:
			os.Exit(prepareMain(os.Args[2:]))
		case spinCmd:
			os.Exit(spinMain())
		}
	}
	os.Exit(m.Run())
}

// smallSizes keeps the tests quick: a 12x12 grid and few probes.
var smallSizes = sizes{Scale: 2.0 / 15, ProbeSources: 8, ProbeTargets: 16, KNNChecks: 8}

func testConfig(t *testing.T, workload string, seconds float64) *config {
	return &config{
		workload: workload, seed: 3, seconds: seconds,
		sizes: smallSizes, work: t.TempDir(), log: io.Discard,
	}
}

// result runs cfg and returns the exit code and the parsed last line.
func result(t *testing.T, cfg *config) (int, map[string]any) {
	t.Helper()
	var out bytes.Buffer
	code := execute(cfg).print(cfg, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
	}
	return code, res
}

func TestLibraryRunPassesAndReportsEveryMetric(t *testing.T) {
	cfg := testConfig(t, "library", 3)
	code, res := result(t, cfg)
	if code != 0 || res["correct"] != true || res["failed"].(float64) != 0 {
		t.Fatalf("clean library run failed: exit %d, %v", code, res)
	}
	metrics := res["metrics"].(map[string]any)
	for _, name := range endToEnd {
		m, ok := metrics[name].(map[string]any)
		if !ok {
			t.Fatalf("metric %s missing", name)
		}
		if v := m["value"].(float64); !(v > 0) {
			t.Errorf("metric %s = %v, want > 0", name, v)
		}
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics reported, want the %d end-to-end metrics", len(metrics), len(endToEnd))
	}
}

// The traced run, which also checks the fleet's answers, passes clean
// and reports every per-layer metric and nothing else.
func TestTracedRunPassesAndReportsEveryMetric(t *testing.T) {
	cfg := testConfig(t, "library", 9)
	cfg.trace = true
	code, res := result(t, cfg)
	if code != 0 || res["correct"] != true || res["failed"].(float64) != 0 {
		t.Fatalf("clean traced run failed: exit %d, %v", code, res)
	}
	metrics := res["metrics"].(map[string]any)
	for _, name := range perLayer {
		if _, ok := metrics[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}
	if len(metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, want the %d per-layer metrics", len(metrics), len(perLayer))
	}
}

// A deliberately corrupted answer must make the run fail: each
// workload's checks, and the traced run's fleet checks, see one served
// distance nudged off its true value. The traced run needs 9 seconds
// for its light steps to hold enough requests for their percentiles.
func TestCorruptedAnswerFailsRun(t *testing.T) {
	for _, tc := range []struct {
		name     string
		workload string
		trace    bool
		seconds  float64
		route    string
	}{
		{"library", "library", false, 3, "guard"},
		{"serve", "serve", false, 4, "/distance"},
		{"traced_fleet", "library", true, 9, "/batch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, tc.workload, tc.seconds)
			cfg.trace = tc.trace
			tampered := false
			cfg.tamper = func(route string, v float64) float64 {
				if route == tc.route && !tampered {
					tampered = true
					return v*1.5 + 1
				}
				return v
			}
			code, res := result(t, cfg)
			if !tampered {
				t.Fatal("no answer passed through the tamper hook")
			}
			if code == 0 || res["correct"] != false || res["failed"].(float64) < 1 {
				t.Fatalf("corrupted %s answer did not fail the run: exit %d, %v", tc.route, code, res)
			}
		})
	}
}
