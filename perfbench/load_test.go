package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{100, 0.9, 10}, {99, 0.9, 9}, {1000, 0.99, 10}, {999, 0.99, 9}, {20, 0.5, 10}, {0, 0.9, 0},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.9}, {100, 0.9}, {99, 0.75}, {40, 0.75}, {39, 0},
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := highestTail(c.n); p > 0 && beyond(c.n, p) < 10 {
			t.Errorf("highestTail(%d) = %g leaves %d beyond", c.n, p, beyond(c.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]time.Duration, 100)
	for i := range s {
		s[i] = time.Duration(i+1) * time.Millisecond
	}
	for p, want := range map[float64]time.Duration{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0.001: 1} {
		if got := percentile(s, p); got != want*time.Millisecond {
			t.Errorf("p%g = %v, want %v", 100*p, got, want*time.Millisecond)
		}
	}
}

// runOpenLoop drives openLoop with requests due every interval, each
// taking service, and returns each request's latency from its due time.
func runOpenLoop(interval, service time.Duration, conns int, d time.Duration) ([]time.Duration, openLoopStats) {
	var mu sync.Mutex
	lat := map[int]time.Duration{}
	st := openLoop(context.Background(), func(k int) time.Duration { return time.Duration(k) * interval },
		conns, d, func(ctx context.Context, k int, due time.Time) {
			time.Sleep(service)
			mu.Lock()
			lat[k] = time.Since(due)
			mu.Unlock()
		})
	out := make([]time.Duration, len(lat))
	for k, v := range lat {
		out[k] = v
	}
	return out, st
}

func TestOpenLoopSustainableRateIsOnTime(t *testing.T) {
	lat, st := runOpenLoop(20*time.Millisecond, 2*time.Millisecond, 2, 300*time.Millisecond)
	if st.Issued != 15 || len(lat) != 15 {
		t.Fatalf("issued %d requests (%d completed), want 15", st.Issued, len(lat))
	}
	for k, l := range lat {
		if l > 15*time.Millisecond {
			t.Errorf("request %d took %v from its due time; service is 2ms and nothing queues", k, l)
		}
	}
	if st.LateMaxMs > 15 {
		t.Errorf("generator ran %vms late with idle connections", st.LateMaxMs)
	}
}

func TestOpenLoopChargesQueueingToTheDueTime(t *testing.T) {
	// One connection, a request due every 5ms, each taking 20ms: request
	// k cannot start before k·20ms, so its latency from the due time is
	// at least k·15ms, and the generator falls as far behind.
	const interval, service = 5 * time.Millisecond, 20 * time.Millisecond
	lat, st := runOpenLoop(interval, service, 1, 100*time.Millisecond)
	if len(lat) != 20 {
		t.Fatalf("completed %d requests, want 20", len(lat))
	}
	for k, l := range lat {
		if floor := time.Duration(k)*(service-interval) + service; l < floor {
			t.Errorf("request %d: latency %v from due time, want at least %v", k, l, floor)
		}
	}
	if floor := ms(19 * (service - interval)); st.LateMaxMs < floor {
		t.Errorf("generator lateness max %vms, want at least %vms", st.LateMaxMs, floor)
	}
}
