package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The benchmark's own open-loop generator. It does not import
// internal/loadgen, so a change there cannot change how the benchmark
// measures.
//
// Arrivals are due at fixed intervals (rate r: arrival i is due at
// start + i/r). Each of at most maxConns workers takes the next
// arrival, sleeps until it is due, sends it and waits for the answer,
// so a slow target builds a queue of late arrivals instead of
// receiving less load. Latency is timed from each arrival's due time,
// which charges a stall to every request queued behind it; how late
// the generator sent each request is kept separately as lag.

const maxConns = 2

// sendFunc performs arrival seq on worker w and reports whether the
// answer was a success.
type sendFunc func(w int, seq int64) error

// stepResult is what one fixed-rate step measured.
type stepResult struct {
	Rate     float64       // offered arrivals per second
	Duration time.Duration // scheduled length of the step
	Due      int64         // arrivals scheduled within the step
	OK       int64         // answered successfully
	Failed   int64         // sent but failed (non-2xx, transport error)
	Unsent   int64         // due but never sent before the step's drain deadline
	Latency  []float64     // ns from due time to completion, successful requests, sorted
	Lag      []float64     // ns from due time to send, every sent request, sorted
	LatBySeq []float64     // Latency in arrival order
	OKSeq    []int64       // the arrival (seq) of each LatBySeq entry
	LagBySeq []float64     // Lag in arrival order, for backlog detection
}

// seqSample is one arrival's measurement, tagged with its sequence
// number.
type seqSample struct {
	Seq int64
	V   float64
}

// Achieved is the rate of successful answers over the step.
func (r *stepResult) Achieved() float64 {
	return float64(r.OK) / r.Duration.Seconds()
}

// runStep offers rate arrivals/s for d, sending through send on
// maxConns workers. Arrivals still unsent at d plus a drain grace are
// counted as unsent and never sent.
func runStep(rate float64, d time.Duration, send sendFunc) *stepResult {
	interval := float64(time.Second) / rate
	total := int64(d.Seconds() * rate)
	grace := d / 4
	if grace < 50*time.Millisecond {
		grace = 50 * time.Millisecond
	}
	res := &stepResult{Rate: rate, Duration: d, Due: total}
	var next atomic.Int64
	var mu sync.Mutex
	var latSeq, lagSeq []seqSample
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond) // let the workers' threads start
	deadline := start.Add(d + grace)
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lat, lag []seqSample
			var ok, failed int64
			for {
				seq := next.Add(1) - 1
				if seq >= total {
					break
				}
				due := start.Add(time.Duration(float64(seq) * interval))
				now := time.Now()
				if now.After(deadline) {
					break
				}
				if wait := due.Sub(now); wait > 0 {
					sleepPrecise(wait)
				}
				sent := time.Now()
				lag = append(lag, seqSample{seq, float64(sent.Sub(due))})
				if err := send(w, seq); err != nil {
					failed++
					continue
				}
				ok++
				lat = append(lat, seqSample{seq, float64(time.Since(due))})
			}
			mu.Lock()
			res.OK += ok
			res.Failed += failed
			latSeq = append(latSeq, lat...)
			lagSeq = append(lagSeq, lag...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	res.Unsent = total - res.OK - res.Failed
	res.LatBySeq, res.Latency, res.OKSeq = inOrder(latSeq)
	res.LagBySeq, res.Lag, _ = inOrder(lagSeq)
	return res
}

// inOrder returns the samples' values in arrival order, sorted, and
// their arrivals.
func inOrder(xs []seqSample) (bySeq, sorted []float64, seqs []int64) {
	sort.Slice(xs, func(i, j int) bool { return xs[i].Seq < xs[j].Seq })
	bySeq = make([]float64, len(xs))
	seqs = make([]int64, len(xs))
	for i, x := range xs {
		bySeq[i], seqs[i] = x.V, x.Seq
	}
	sorted = append([]float64(nil), bySeq...)
	sort.Float64s(sorted)
	return bySeq, sorted, seqs
}

// bestPerOp returns, for each of n ops sent round robin (arrival seq
// sends op seq%n), its fastest successful latency, sorted. It fails if
// an op never succeeded.
func bestPerOp(r *stepResult, n int) ([]float64, error) {
	best := make([]float64, n)
	for i := range best {
		best[i] = math.Inf(1)
	}
	for i, seq := range r.OKSeq {
		op := int(seq % int64(n))
		best[op] = min(best[op], r.LatBySeq[i])
	}
	sort.Float64s(best)
	if math.IsInf(best[n-1], 1) {
		return nil, fmt.Errorf("some of the %d ops never succeeded", n)
	}
	return best, nil
}

// setTimerSlack sets the calling thread's timer slack to 1µs
// (PR_SET_TIMERSLACK); the default 50µs would blur sub-ms pacing.
func setTimerSlack() {
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
}

// sleepPrecise blocks the calling thread for d with nanosleep, after
// setting the thread's timer slack to 1µs, so the sleep ends within a
// few µs. Go's own timers round sub-ms sleeps up to a millisecond on an
// idle P, and locking the goroutine to a thread instead halves the rate
// a worker can send at.
func sleepPrecise(d time.Duration) {
	setTimerSlack()
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// backlogGrowing reports whether the generator fell further and further
// behind over the step: the median send lag of the last quarter of
// arrivals exceeds the first quarter's by more than tolerance. A target
// that keeps up holds lag flat however noisy it is; one that cannot
// keep up adds lag linearly with every arrival.
func backlogGrowing(lags []float64, tolerance time.Duration) bool {
	if len(lags) < 8 {
		return false
	}
	q := len(lags) / 4
	first := medianOf(lags[:q])
	last := medianOf(lags[len(lags)-q:])
	return last-first > float64(tolerance)
}

// maxWindows bounds how many windows quietest splits a step into.
const maxWindows = 8

// quietest returns the step's p50 and p99 in its quietest window. The
// latencies, in arrival order, are split into up to maxWindows
// consecutive windows of at least 100*minBeyond samples, so each
// window's p99 has minBeyond samples beyond it; the lowest window p50
// and the lowest window p99 are returned with the window count. On a
// host shared with other tenants, interference comes in bursts of
// milliseconds to seconds that move a whole step's tail by 2-3x from
// run to run; the quietest window keeps the program's own tail (GC,
// scheduling, queueing) and drops most of the host's.
func quietest(bySeq []float64) (p50, p99 float64, windows int, err error) {
	k := min(len(bySeq)/(100*minBeyond), maxWindows)
	if k < 1 {
		if _, err = percentile(bySeq, 0.99); err == nil {
			err = fmt.Errorf("p99 needs %d samples, have %d", 100*minBeyond, len(bySeq))
		}
		return 0, 0, 0, err
	}
	p50, p99 = math.Inf(1), math.Inf(1)
	for w := 0; w < k; w++ {
		win := append([]float64(nil), bySeq[w*len(bySeq)/k:(w+1)*len(bySeq)/k]...)
		sort.Float64s(win)
		p, err := percentile(win, 0.99)
		if err != nil {
			return 0, 0, 0, err
		}
		p50, p99 = min(p50, median(win)), min(p99, p)
	}
	return p50, p99, k, nil
}

// percentile returns the q-quantile (0 < q < 1) of sorted by nearest
// rank. It fails when fewer than minBeyond samples lie above the
// quantile, so no reported percentile rests on a handful of requests.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if beyond := float64(n) * (1 - q); q > 0.5 && beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %.0f of %d",
			q*100, minBeyond, math.Floor(beyond), n)
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], nil
}

// minBeyond is the number of samples the highest reported percentile
// must have beyond it.
const minBeyond = 10

// median of an already sorted slice (mean of the middle pair when even).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return median(c)
}

// rungPasses applies the ladder's acceptance rule to one step: p99 (of
// the quietest window) within limit, at least 95% of the offered rate
// answered, nothing failed or left unsent, and no growing backlog.
func rungPasses(r *stepResult, limit time.Duration) bool {
	if r.Failed > 0 || r.Unsent > 0 || r.Achieved() < 0.95*r.Rate {
		return false
	}
	_, p99, _, err := quietest(r.LatBySeq)
	if err != nil || p99 > float64(limit) {
		return false
	}
	return !backlogGrowing(r.LagBySeq, limit/2)
}

// ladderResult is the outcome of a max-rate search.
type ladderResult struct {
	MaxRPS float64 // achieved answer rate at the highest passing rung; 0 if none passed
	Rungs  []*stepResult
	Passed []bool
}

// findMaxRate searches for the highest offered rate meeting limit. It
// steps up ×1.25 from start until a rung fails, then bisects (in log
// space) between the last pass and the first fail for refine rungs. If
// even start fails it steps down ×0.8 instead. The rung count is capped
// at maxRungs; each rung lasts rungDur, or longer when rungDur holds
// too few arrivals for a p99.
func findMaxRate(start float64, limit, rungDur time.Duration, maxRungs, refine int, send sendFunc) *ladderResult {
	lr := &ladderResult{}
	try := func(rate float64) bool {
		// Long enough for p99 to have minBeyond samples beyond it.
		d := rungDur
		if min := time.Duration(float64(minBeyond*110) / rate * float64(time.Second)); d < min {
			d = min
		}
		r := runStep(rate, d, send)
		ok := rungPasses(r, limit)
		lr.Rungs = append(lr.Rungs, r)
		lr.Passed = append(lr.Passed, ok)
		if ok && r.Achieved() > lr.MaxRPS {
			lr.MaxRPS = r.Achieved()
		}
		return ok
	}
	pass, fail := 0.0, 0.0
	rate := start
	for len(lr.Rungs) < maxRungs-refine {
		if try(rate) {
			pass = rate
			if fail > 0 {
				break
			}
			rate *= 1.25
		} else {
			fail = rate
			if pass > 0 {
				break
			}
			rate *= 0.8
		}
	}
	for i := 0; i < refine && pass > 0 && fail > 0; i++ {
		mid := math.Sqrt(pass * fail)
		if try(mid) {
			pass = mid
		} else {
			fail = mid
		}
	}
	return lr
}
