package main

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestBacklogGrowingDetectsLinearLag(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var flat, growing []float64
	for i := 0; i < 4000; i++ {
		noise := rng.Float64() * float64(300*time.Microsecond)
		flat = append(flat, noise)
		// 5% over capacity at 10k/s: each arrival adds 5µs of lag.
		growing = append(growing, noise+float64(i)*5e3)
	}
	if backlogGrowing(flat, 500*time.Microsecond) {
		t.Fatal("flat noisy lag reported as a growing backlog")
	}
	if !backlogGrowing(growing, 500*time.Microsecond) {
		t.Fatal("linearly growing lag not detected")
	}
	// A single stall early in the step is not a growing backlog.
	stall := append([]float64(nil), flat...)
	for i := 100; i < 200; i++ {
		stall[i] += float64(3 * time.Millisecond)
	}
	if backlogGrowing(stall, 500*time.Microsecond) {
		t.Fatal("an early transient stall reported as a growing backlog")
	}
}

func TestPercentileRequiresTenBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples has fewer than 10 beyond it and must fail")
	}
	xs = append(xs, 1000)
	p99, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p99 != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 (nearest rank)", p99)
	}
	p50, err := percentile(xs, 0.5)
	if err != nil || p50 != 500 {
		t.Fatalf("p50 of 1..1000 = %v (%v), want 500", p50, err)
	}
	// p50 needs only one sample.
	if v, err := percentile([]float64{7}, 0.5); err != nil || v != 7 {
		t.Fatalf("p50 of one sample = %v (%v)", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples must fail")
	}
}

func TestRunStepPacesAndTimesFromDue(t *testing.T) {
	// A target taking 2ms per request on 2 connections serves 1000/s;
	// offered 400/s it keeps up, offered 2000/s it falls behind.
	slow := func(int, int64) error { time.Sleep(2 * time.Millisecond); return nil }
	r := runStep(400, 500*time.Millisecond, slow)
	if r.Unsent != 0 || r.Failed != 0 || int64(len(r.Latency)) != r.Due {
		t.Fatalf("400/s against 1000/s capacity: due %d ok %d unsent %d", r.Due, r.OK, r.Unsent)
	}
	if backlogGrowing(r.LagBySeq, 2*time.Millisecond) {
		t.Fatal("a target with spare capacity built a growing backlog")
	}
	over := runStep(2000, 500*time.Millisecond, slow)
	if !backlogGrowing(over.LagBySeq, 2*time.Millisecond) && over.Unsent == 0 {
		t.Fatal("a target at twice its capacity showed neither backlog nor unsent arrivals")
	}
	if rungPasses(over, 5*time.Millisecond) {
		t.Fatal("an overloaded rung passed")
	}
	if !sort.Float64sAreSorted(over.Latency) {
		t.Fatal("latencies not sorted")
	}
	// Latency is timed from the due time, so queueing shows: the
	// overloaded step's median is far above the 2ms service time.
	if m := median(over.Latency); m < float64(10*time.Millisecond) {
		t.Fatalf("overloaded median latency %v does not include queueing", time.Duration(m))
	}
}

func TestRunStepCountsFailures(t *testing.T) {
	fail := func(w int, seq int64) error {
		if seq%10 == 0 {
			return errors.New("boom")
		}
		return nil
	}
	r := runStep(1000, 200*time.Millisecond, fail)
	if r.Failed != r.Due/10 || r.OK != r.Due-r.Failed {
		t.Fatalf("due %d ok %d failed %d", r.Due, r.OK, r.Failed)
	}
	if rungPasses(r, time.Second) {
		t.Fatal("a rung with failures passed")
	}
}

func TestFindMaxRateBracketsCapacity(t *testing.T) {
	// 1ms per request on 2 connections: capacity 2000/s.
	target := func(int, int64) error { sleepPrecise(time.Millisecond); return nil }
	lr := findMaxRate(800, 20*time.Millisecond, 100*time.Millisecond, 9, 2, target)
	if lr.MaxRPS < 1000 || lr.MaxRPS > 2100 {
		t.Fatalf("max rate %v outside the plausible range for 2000/s capacity", lr.MaxRPS)
	}
	if len(lr.Rungs) > 9 {
		t.Fatalf("%d rungs exceed the cap", len(lr.Rungs))
	}
}

func TestQuietestWindowIgnoresBursts(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(i % 100) // each clean window: p50 49.5, p99 98 (nearest rank)
	}
	// Bursts of interference in four of the five windows.
	for _, at := range []int{100, 1100, 2500, 4900} {
		for i := at; i < at+50; i++ {
			xs[i] = 1e6
		}
	}
	p50, p99, k, err := quietest(xs)
	if err != nil || k != 5 || p50 != 49.5 || p99 != 98 {
		t.Fatalf("quietest = p50 %v p99 %v over %d windows (%v), want 49.5, 98 over 5", p50, p99, k, err)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if whole, _ := percentile(sorted, 0.99); whole != 1e6 {
		t.Fatalf("whole-step p99 = %v, the bursts should dominate it", whole)
	}
	if _, _, k, err := quietest(make([]float64, 100000)); err != nil || k != maxWindows {
		t.Fatalf("a long step splits into %d windows (%v), want %d", k, err, maxWindows)
	}
	if _, _, _, err := quietest(xs[:999]); err == nil {
		t.Fatal("quietest of 999 samples must fail: its p99 has fewer than 10 beyond it")
	}
}

func TestBestPerOpKeepsEachOpsFastest(t *testing.T) {
	// Ops 0..2 round robin; op 1's third send failed (seq 7 missing).
	r := &stepResult{
		OKSeq:    []int64{0, 1, 2, 3, 4, 5, 6, 8},
		LatBySeq: []float64{9, 50, 7, 3, 40, 8, 5, 6},
	}
	best, err := bestPerOp(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{3, 6, 40}; best[0] != want[0] || best[1] != want[1] || best[2] != want[2] {
		t.Fatalf("bestPerOp = %v, want %v", best, want)
	}
	if _, err := bestPerOp(r, 9); err == nil {
		t.Fatal("an op that never succeeded must fail")
	}
}
