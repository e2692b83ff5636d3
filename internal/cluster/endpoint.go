package cluster

import (
	"context"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// State is an endpoint's position in the health state machine.
//
//	up ──failure──▶ suspect ──(downAfter consecutive failures)──▶ down
//	 ▲                 │                                            │
//	 └──── success ────┴──────────── probing ◀── cooldown expiry ───┘
//
// Up endpoints take traffic first. A failed request or probe demotes an
// endpoint with a cooldown; while the cooldown runs, requests prefer
// its healthy siblings. When the cooldown expires, the next probe (or
// request, whichever comes first) moves it to probing and its outcome
// settles the state: success restores up, failure re-arms the cooldown
// and, after downAfter consecutive failures, parks the endpoint down.
type State int32

const (
	StateUp State = iota
	StateSuspect
	StateDown
	StateProbing
)

func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	case StateProbing:
		return "probing"
	}
	return "unknown"
}

// endpoint is one replica URL of one shard, with its SDK client and
// health state.
type endpoint struct {
	url    string
	client *api.Client
	gauge  *obs.Gauge

	mu      sync.Mutex
	state   State
	fails   int       // consecutive failures since the last success
	retryAt time.Time // cooldown expiry; zero while up
}

func newEndpoint(rawURL string, cc ClientConfig, timeout time.Duration, hc *http.Client) (*endpoint, error) {
	opts := api.ClientOptions{
		HTTPClient: hc,
		Timeout:    timeout,
		Retries:    cc.Retries,
		Backoff:    time.Duration(cc.Backoff),
	}
	c, err := api.NewClient(rawURL, opts)
	if err != nil {
		return nil, err
	}
	ep := &endpoint{url: rawURL, client: c, gauge: clusterEndpointUp.With(rawURL)}
	ep.gauge.Set(1)
	return ep, nil
}

// State reports the endpoint's current health state.
func (e *endpoint) State() State {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state
}

// rank orders candidates for a shard call: 0 = up, 1 = demoted but the
// cooldown has expired (worth a try), 2 = still cooling down (last
// resort).
func (e *endpoint) rank(now time.Time) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.state == StateUp:
		return 0
	case !now.Before(e.retryAt):
		return 1
	default:
		return 2
	}
}

// markSuccess restores the endpoint to up after a successful request
// or probe.
func (e *endpoint) markSuccess() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.state = StateUp
	e.fails = 0
	e.retryAt = time.Time{}
	e.gauge.Set(1)
}

// markFailure demotes the endpoint: suspect with a fresh cooldown, or
// down once downAfter consecutive failures accumulate.
func (e *endpoint) markFailure(cooldown time.Duration, downAfter int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.fails++
	if e.fails >= downAfter {
		e.state = StateDown
	} else {
		e.state = StateSuspect
	}
	e.retryAt = time.Now().Add(cooldown)
	e.gauge.Set(0)
}

// beginProbe marks a non-up endpoint as probing for the duration of a
// health check. Up endpoints stay up — a probe of a healthy endpoint
// is not an event.
func (e *endpoint) beginProbe() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != StateUp {
		e.state = StateProbing
	}
}

// probeBase is the endpoint's server root: health endpoints live
// beside the API, not under a mount, so a replica URL like
// http://host/v1/datasets/runs probes http://host/readyz.
func (e *endpoint) probeBase() string {
	u, err := url.Parse(e.url)
	if err != nil {
		return e.url
	}
	return u.Scheme + "://" + u.Host
}

// group is one shard's replica set.
type group struct {
	name      string
	endpoints []*endpoint
	cooldown  time.Duration
	downAfter int
}

// order ranks the group's endpoints for one call: healthy first, then
// cooldown-expired, then still-cooling, with the affinity rotating the
// start so replicas share read load deterministically.
func (g *group) order(affinity uint64, now time.Time) []*endpoint {
	n := len(g.endpoints)
	out := make([]*endpoint, 0, n)
	start := int(affinity % uint64(n))
	for _, want := range []int{0, 1, 2} {
		for i := 0; i < n; i++ {
			ep := g.endpoints[(start+i)%n]
			if ep.rank(now) == want {
				out = append(out, ep)
			}
		}
	}
	return out
}

// call runs fn against the group's replicas in health order until one
// succeeds. Authoritative answers (bad request, not found, not
// supported, canceled) return immediately — a second replica would
// only repeat them. Transport-level and server-side failures fail over
// to the next replica, demoting the failed endpoint when the error
// says the replica itself is unhealthy; overloaded replicas are
// skipped for this call without demotion, since backpressure is a
// healthy signal. With every replica exhausted, the shard is reported
// unavailable with the last failure attached.
func (g *group) call(ctx context.Context, affinity uint64, fn func(*api.Client) error) error {
	order := g.order(affinity, time.Now())
	var lastErr error
	for i, ep := range order {
		if err := ctx.Err(); err != nil {
			return api.FromError(err)
		}
		err := fn(ep.client)
		if err == nil {
			ep.markSuccess()
			return nil
		}
		if ctx.Err() != nil || !failsOver(err) {
			return err
		}
		if demotes(err) {
			ep.markFailure(g.cooldown, g.downAfter)
		}
		lastErr = err
		if i < len(order)-1 {
			clusterFailovers.Inc()
		}
	}
	return api.Errorf(api.CodeUnavailable, "shard %s: all %d replicas failed: %v",
		g.name, len(order), lastErr)
}

// failsOver reports whether an error is worth retrying on a sibling
// replica.
func failsOver(err error) bool {
	switch api.CodeOf(err) {
	case api.CodeBadRequest, api.CodeNotFound, api.CodeNotSupported, api.CodeCanceled:
		return false
	}
	return true
}

// demotes reports whether a failure indicts the replica itself (crash,
// corrupt store, refused connection) rather than transient load.
func demotes(err error) bool {
	switch api.CodeOf(err) {
	case api.CodeInternal, api.CodeUnavailable:
		return true
	}
	return false
}
