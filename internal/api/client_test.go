package api_test

// Client SDK tests run against the real httpapi handler over a Local
// backend, so they double as the SDK ⇄ server contract check: every
// Backend method must answer identically through HTTP.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/api/httpapi"
	"repro/internal/codec"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tensor"
)

const goblazSpec = "goblaz:block=4x4,float=float64,index=int16"

func buildLocal(t testing.TB, spec string, n, rows, cols int) *api.Local {
	t.Helper()
	cd, err := codec.Lookup(spec)
	if err != nil {
		t.Fatal(err)
	}
	coder := cd.(codec.Coder)
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf, coder.Spec())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		f := tensor.New(rows, cols)
		for i := range f.Data() {
			f.Data()[i] = math.Sin(float64(i)/7+float64(k)) + 0.3*float64(k)
		}
		c, err := coder.Compress(f)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := coder.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := store.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return api.NewLocal(r, query.New(r, query.Options{}))
}

// newPair serves a Local backend over httptest and returns both sides.
func newPair(t *testing.T) (*api.Local, *api.Client) {
	t.Helper()
	local := buildLocal(t, goblazSpec, 3, 16, 16)
	srv := httptest.NewServer(httpapi.New(local, nil, httpapi.Options{}))
	t.Cleanup(srv.Close)
	c, err := api.NewClient(srv.URL, api.ClientOptions{HTTPClient: srv.Client(), Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	return local, c
}

func TestClientMatchesLocal(t *testing.T) {
	local, c := newPair(t)
	ctx := context.Background()

	lInfo, _ := local.Spec(ctx)
	cInfo, err := c.Spec(ctx)
	if err != nil || !reflect.DeepEqual(cInfo, lInfo) {
		t.Errorf("Spec: client %+v vs local %+v (%v)", cInfo, lInfo, err)
	}

	lFrames, _ := local.Frames(ctx)
	cFrames, err := c.Frames(ctx)
	if err != nil || !reflect.DeepEqual(cFrames, lFrames) {
		t.Errorf("Frames: client %+v vs local %+v (%v)", cFrames, lFrames, err)
	}

	lf, _ := local.Frame(ctx, 1)
	cf, err := c.Frame(ctx, 1)
	if err != nil || !reflect.DeepEqual(cf, lf) {
		t.Errorf("Frame over HTTP differs from local (%v)", err)
	}

	lp, _ := payloadOf(ctx, local, 2)
	cp, err := payloadOf(ctx, c, 2)
	if err != nil || !bytes.Equal(cp, lp) {
		t.Errorf("Payload over HTTP differs from local (%v)", err)
	}

	ls, _ := local.Stats(ctx, 0, []string{query.AggMean, query.AggStdDev})
	cs, err := c.Stats(ctx, 0, []string{query.AggMean, query.AggStdDev})
	if err != nil || !reflect.DeepEqual(cs, ls) {
		t.Errorf("Stats: client %+v vs local %+v (%v)", cs, ls, err)
	}

	lr, _ := local.Region(ctx, 1, []int{2, 3}, []int{4, 5})
	cr, err := c.Region(ctx, 1, []int{2, 3}, []int{4, 5})
	if err != nil || !reflect.DeepEqual(cr, lr) {
		t.Errorf("Region: client %+v vs local %+v (%v)", cr, lr, err)
	}

	req := &query.Request{Aggregates: []string{query.AggMean, query.AggVariance}}
	lq, _ := local.Query(ctx, req)
	cq, err := c.Query(ctx, req)
	if err != nil || !reflect.DeepEqual(cq, lq) {
		t.Errorf("Query: client %+v vs local %+v (%v)", cq, lq, err)
	}
	if !cq.ExecutedInCompressedSpace {
		t.Error("compressed-space flag lost in transit")
	}
}

func TestClientErrorsCarryStableCodes(t *testing.T) {
	_, c := newPair(t)
	ctx := context.Background()

	if _, err := c.Frame(ctx, 99); api.CodeOf(err) != api.CodeNotFound {
		t.Errorf("missing frame over HTTP: %v", err)
	}
	if _, err := c.Stats(ctx, 0, []string{"median"}); api.CodeOf(err) != api.CodeBadRequest {
		t.Errorf("unknown aggregate over HTTP: %v", err)
	}
	if _, err := c.Region(ctx, 0, []int{99, 99}, []int{2, 2}); api.CodeOf(err) != api.CodeBadRequest {
		t.Errorf("bad region over HTTP: %v", err)
	}
	if _, err := c.Query(ctx, &query.Request{}); api.CodeOf(err) != api.CodeBadRequest {
		t.Errorf("empty query over HTTP: %v", err)
	}
	// The message survives the envelope for caller-fault codes.
	_, err := c.Stats(ctx, 0, []string{"median"})
	if apiErr := api.FromError(err); apiErr.Message == "" || apiErr.Message == "internal error" {
		t.Errorf("caller-fault error lost its message: %+v", apiErr)
	}
	// errors.Is reaches the class sentinel on either transport: the
	// code's sentinel is re-attached client-side.
	if !errors.Is(err, query.ErrBadRequest) {
		t.Errorf("client error %v should wrap query.ErrBadRequest", err)
	}
	if _, err := c.Frame(ctx, 99); !errors.Is(err, api.ErrNotFound) {
		t.Errorf("client error %v should wrap api.ErrNotFound", err)
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	local := buildLocal(t, goblazSpec, 2, 8, 8)
	inner := httpapi.New(local, nil, httpapi.Options{})
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, req)
	}))
	defer srv.Close()
	c, err := api.NewClient(srv.URL, api.ClientOptions{Retries: 2, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Spec(context.Background())
	if err != nil || info.Frames != 2 {
		t.Fatalf("Spec after retries = %+v, %v (calls %d)", info, err, calls.Load())
	}
	if calls.Load() != 3 {
		t.Errorf("made %d calls, want 3 (two 503s, one success)", calls.Load())
	}
}

func TestClientRetriesExhaust(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c, err := api.NewClient(srv.URL, api.ClientOptions{Retries: 1, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Spec(context.Background()); err == nil {
		t.Fatal("persistent 503 should fail")
	}
	if calls.Load() != 2 {
		t.Errorf("made %d calls, want 2 (initial + 1 retry)", calls.Load())
	}
	// Non-retryable statuses do not retry.
	calls.Store(0)
	srv2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		calls.Add(1)
		http.NotFound(w, req)
	}))
	defer srv2.Close()
	c2, _ := api.NewClient(srv2.URL, api.ClientOptions{Retries: 3, Backoff: time.Millisecond})
	if _, err := c2.Spec(context.Background()); api.CodeOf(err) != api.CodeNotFound {
		t.Errorf("bare 404 should classify not_found: %v", err)
	}
	if calls.Load() != 1 {
		t.Errorf("404 retried: %d calls", calls.Load())
	}
}

func TestClientHonorsContext(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release)
	c, err := api.NewClient(srv.URL, api.ClientOptions{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Spec(ctx); api.CodeOf(err) != api.CodeCanceled {
		t.Errorf("canceled request classified %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancellation did not interrupt the request")
	}
}

func TestNewClientRejectsNonHTTP(t *testing.T) {
	for _, bad := range []string{"", "store.gbz", "ftp://x", "http://"} {
		if _, err := api.NewClient(bad, api.ClientOptions{}); err == nil {
			t.Errorf("NewClient(%q) should fail", bad)
		}
	}
}

func TestClientRetries429HonoringRetryAfter(t *testing.T) {
	local := buildLocal(t, goblazSpec, 2, 8, 8)
	inner := httpapi.New(local, nil, httpapi.Options{})
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"overloaded","message":"shed"}}`))
			return
		}
		inner.ServeHTTP(w, req)
	}))
	defer srv.Close()
	c, err := api.NewClient(srv.URL, api.ClientOptions{Retries: 1, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	info, err := c.Spec(context.Background())
	if err != nil || info.Frames != 2 {
		t.Fatalf("Spec after a 429 = %+v, %v (calls %d)", info, err, calls.Load())
	}
	if calls.Load() != 2 {
		t.Fatalf("made %d calls, want 2 (one 429, one success)", calls.Load())
	}
	// The server asked for a 1 s pause; the client's own backoff was 1 ms,
	// so the observed delay proves Retry-After won.
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Errorf("retried after %v, want ≥ ~1s per Retry-After", elapsed)
	}
}

func TestClientExhausted429KeepsOverloadedCode(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":{"code":"overloaded","message":"shed"}}`))
	}))
	defer srv.Close()
	c, err := api.NewClient(srv.URL, api.ClientOptions{Retries: 1, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Spec(context.Background())
	if api.CodeOf(err) != api.CodeOverloaded {
		t.Fatalf("code = %q, want overloaded", api.CodeOf(err))
	}
	if !errors.Is(err, api.ErrOverloaded) {
		t.Fatalf("sentinel not re-attached across the wire: %v", err)
	}
}

// payloadOf reads a frame's raw payload through b's PayloadReader.
func payloadOf(ctx context.Context, b api.Backend, label int) ([]byte, error) {
	rs, err := b.PayloadReader(ctx, label)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(rs)
}
