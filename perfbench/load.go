package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The op kinds every workload issues. Each workload runs all of them, in
// its own mix, so every end-to-end metric has a value on every workload.
const (
	opFrame   = "frame"
	opRegion  = "region"
	opStats   = "stats"
	opCompare = "compare"
	opReduce  = "reduce"
	opIngest  = "ingest"
)

var allOps = []string{opFrame, opRegion, opStats, opCompare, opReduce, opIngest}

// failedLatency stands in for the latency of a failed op: a request that
// fails or is shed misses every latency limit, so it sorts above every
// real sample.
const failedLatency = time.Duration(math.MaxInt64)

// recorder collects per-op latencies and the attempted/failed counts of
// one measured run. It is safe for concurrent use.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]time.Duration
	attempted int
	failed    int
	errs      map[string]int // first-line error text → count, for the report
}

func newRecorder() *recorder {
	return &recorder{lat: map[string][]time.Duration{}, errs: map[string]int{}}
}

// add records one op. A non-nil err counts the op as failed.
func (r *recorder) add(op string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		d = failedLatency
		msg := err.Error()
		if len(msg) > 160 {
			msg = msg[:160]
		}
		r.errs[op+": "+msg]++
	}
	r.lat[op] = append(r.lat[op], d)
}

// sorted returns a sorted copy of op's latencies.
func (r *recorder) sorted(op string) []time.Duration {
	r.mu.Lock()
	s := append([]time.Duration(nil), r.lat[op]...)
	r.mu.Unlock()
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// rank returns the nearest-rank index of percentile p (0 < p ≤ 1) in a
// sorted sample of n values.
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// beyond returns how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, p)
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// highestTail returns the highest candidate percentile that leaves at
// least ten samples beyond it, or 0 when even p75 does not.
func highestTail(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// closedLoop runs clients workers, each calling fn again as soon as the
// previous call returns, until d has elapsed. Calls in flight at the
// deadline complete (and count); closedLoop returns the time it took.
func closedLoop(ctx context.Context, clients int, d time.Duration, fn func(ctx context.Context, worker int)) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				fn(ctx, w)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// openLoopStats describes how far an open-loop generator fell behind its
// schedule: lateness is the gap between a request's due time and the
// moment it was sent (waiting for a free connection counts).
type openLoopStats struct {
	Issued        int     `json:"issued"`
	LateP50Ms     float64 `json:"late_p50_ms"`
	LateP99Ms     float64 `json:"late_p99_ms"`
	LateMaxMs     float64 `json:"late_max_ms"`
	OfferedPerSec float64 `json:"offered_per_s"`
}

// openLoop issues requests on a fixed schedule: request k is due at
// start + dueAt(k) (non-decreasing in k), for every k due before
// start + d. At most conns requests are in flight; a request that finds
// every connection busy waits, and that wait counts against it, because
// fn receives the due time and the caller times the request from it.
// openLoop returns once every issued request has completed.
func openLoop(ctx context.Context, dueAt func(k int) time.Duration, conns int, d time.Duration,
	fn func(ctx context.Context, k int, due time.Time)) openLoopStats {
	start := time.Now()
	end := start.Add(d)
	slots := make(chan struct{}, conns) // semaphore: one token per connection
	var wg sync.WaitGroup
	var late []time.Duration
	for k := 0; ; k++ {
		due := start.Add(dueAt(k))
		if !due.Before(end) || ctx.Err() != nil {
			break
		}
		sleepUntil(ctx, due)
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		late = append(late, time.Since(due))
		wg.Add(1)
		go func(k int, due time.Time) {
			defer wg.Done()
			defer func() { <-slots }()
			fn(ctx, k, due)
		}(k, due)
	}
	wg.Wait()
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	st := openLoopStats{Issued: len(late), OfferedPerSec: float64(len(late)) / d.Seconds()}
	if len(late) > 0 {
		st.LateP50Ms = ms(percentile(late, 0.5))
		st.LateP99Ms = ms(percentile(late, 0.99))
		st.LateMaxMs = ms(late[len(late)-1])
	}
	return st
}

func sleepUntil(ctx context.Context, t time.Time) {
	tm := time.NewTimer(time.Until(t))
	defer tm.Stop()
	select {
	case <-tm.C:
	case <-ctx.Done():
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// counter hands out consecutive op numbers to concurrent workers.
type counter struct{ n atomic.Int64 }

func (c *counter) next() int { return int(c.n.Add(1) - 1) }
