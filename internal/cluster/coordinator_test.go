package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/api/conformance"
	"repro/internal/api/httpapi"
	"repro/internal/codec"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tensor"
)

const (
	testGoblazSpec = "goblaz:block=4x4,float=float64,index=int16"
	testZfpSpec    = "zfp:rate=16"
)

// serveStore opens the store file behind a fresh httptest server — one
// shard replica — and registers cleanup on t.
func serveStore(t testing.TB, path string) *httptest.Server {
	t.Helper()
	l, err := api.OpenLocal(path, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	srv := httptest.NewServer(httpapi.New(l, nil, httpapi.Options{}))
	t.Cleanup(srv.Close)
	return srv
}

// clusterOf serves every shard of the manifest from `replicas` identical
// httptest servers each and opens a coordinator over the resulting
// topology. Probes are disabled (tests drive ProbeNow directly) and the
// cooldown is long, so a replica a test kills stays demoted for the
// test's remainder.
func clusterOf(t testing.TB, manifestPath string, replicas int) (*Coordinator, [][]*httptest.Server) {
	t.Helper()
	man, err := shard.LoadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(manifestPath)
	topo := &Topology{
		Version: TopologyVersion,
		Probe:   ProbeConfig{Cooldown: Duration(time.Hour)},
		Client:  ClientConfig{Retries: -1},
	}
	var servers [][]*httptest.Server
	for s, sh := range man.Shards {
		var srvs []*httptest.Server
		var reps []string
		for r := 0; r < replicas; r++ {
			srv := serveStore(t, filepath.Join(dir, sh.Path))
			srvs = append(srvs, srv)
			reps = append(reps, srv.URL)
		}
		servers = append(servers, srvs)
		topo.Shards = append(topo.Shards, ShardSpec{Name: fmt.Sprintf("s%d", s), Replicas: reps})
	}
	co, err := New(topo, Options{DisableProbes: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return co, servers
}

// TestCoordinatorConformance runs the full v1 Backend contract suite
// against a coordinator scatter-gathering real HTTP shard servers, for
// uniform and mixed-codec fixtures at several shard counts — the same
// suite Local, Client, and Sharded pass.
func TestCoordinatorConformance(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		for _, nShards := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("mixed=%v/shards=%d", mixed, nShards), func(t *testing.T) {
				fx := conformance.NewFixture(t)
				if mixed {
					fx = conformance.NewMixedFixture(t)
				}
				conformance.Run(t, fx, func(t *testing.T) api.Backend {
					man := fx.BuildManifest(t, t.TempDir(), nShards)
					co, _ := clusterOf(t, man, 1)
					return co
				})
			})
		}
	}
}

// randomFrames builds n deterministic pseudo-random rows×cols frames
// (a smooth random walk, so every codec compresses sanely).
func randomFrames(rng *rand.Rand, n, rows, cols int) []*tensor.Tensor {
	frames := make([]*tensor.Tensor, n)
	for k := range frames {
		f := tensor.New(rows, cols)
		v := rng.NormFloat64()
		for i := range f.Data() {
			v += 0.1 * rng.NormFloat64()
			f.Data()[i] = v
		}
		frames[k] = f
	}
	return frames
}

func mustCoder(t testing.TB, spec string) codec.Coder {
	t.Helper()
	cd, err := codec.Lookup(spec)
	if err != nil {
		t.Fatal(err)
	}
	coder, ok := cd.(codec.Coder)
	if !ok {
		t.Fatalf("codec %q does not serialize", spec)
	}
	return coder
}

// buildDataset writes frames as an nShards dataset under dir and
// returns the manifest path.
func buildDataset(t testing.TB, dir, spec string, frames []*tensor.Tensor, nShards int) string {
	t.Helper()
	labels := make([]int, len(frames))
	for i := range labels {
		labels[i] = i
	}
	path := filepath.Join(dir, "ds.json")
	_, err := shard.WriteDataset(path, mustCoder(t, spec), labels, nShards, 0,
		func(i int) (*tensor.Tensor, error) { return frames[i], nil })
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// openSingle opens the same frames as one store with a fresh engine —
// the differential tests' ground truth.
func openSingle(t testing.TB, spec string, frames []*tensor.Tensor) *query.Engine {
	t.Helper()
	dir := t.TempDir()
	man, err := shard.LoadManifest(buildDataset(t, dir, spec, frames, 1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := store.Open(filepath.Join(dir, man.Shards[0].Path))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return query.New(r, query.Options{})
}

// requestBattery is the remote-vs-local differential's request set:
// every aggregate, every metric (vs-reference and pairwise), reductions
// on both execution paths, region and point reads, boundary-crossing
// selections, and — when the first shard boundary falls inside the
// frame range — a pairwise metric straddling it, which no single shard
// can answer alone.
func requestBattery(n, boundary int) []*query.Request {
	all := []string{
		query.AggMean, query.AggVariance, query.AggStdDev,
		query.AggMin, query.AggMax, query.AggL2Norm,
	}
	ref := n / 2
	from, to := 1, n-1
	pairTo := 2
	reqs := []*query.Request{
		{Aggregates: all},
		{Reduce: all},
		{Reduce: []string{query.AggMean, query.AggL2Norm}},
		{Aggregates: []string{query.AggMean}, Reduce: []string{query.AggVariance, query.AggStdDev}},
		{Select: query.Selector{From: &from, To: &to}, Aggregates: []string{query.AggMean}, Reduce: all},
		{Select: query.Selector{Labels: "?"}, Aggregates: all},
		{Region: &query.RegionRequest{Offset: []int{3, 5}, Shape: []int{7, 6}}},
		{Point: []int{10, 12}},
		{Metric: &query.MetricRequest{Kind: query.MetricMSE, Against: &ref}},
		{Metric: &query.MetricRequest{Kind: query.MetricPSNR, Against: &ref}},
		{Metric: &query.MetricRequest{Kind: query.MetricDot, Against: &ref}},
		{Metric: &query.MetricRequest{Kind: query.MetricCosine, Against: &ref}},
		{Metric: &query.MetricRequest{Kind: query.MetricMSE, Against: &ref}, Reduce: []string{query.AggMean}},
		{Select: query.Selector{To: &pairTo}, Metric: &query.MetricRequest{Kind: query.MetricDot}},
	}
	if boundary >= 1 && boundary+1 <= n {
		bf, bt := boundary-1, boundary+1
		reqs = append(reqs, &query.Request{
			Select: query.Selector{From: &bf, To: &bt},
			Metric: &query.MetricRequest{Kind: query.MetricMSE},
		})
	}
	return reqs
}

// approxEq compares within 1e-9 relative tolerance, treating equal
// infinities and NaNs as matches.
func approxEq(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

// compareResults asserts the cluster result equals the single-store one
// within 1e-9. skipFlags drops the compressed-space flag comparison:
// cross-shard metrics run decoded on the coordinator however the local
// engine executed them (the values must still agree).
func compareResults(t *testing.T, want, got *query.Result, skipFlags bool) {
	t.Helper()
	if got.Spec != want.Spec {
		t.Errorf("spec %q != %q", got.Spec, want.Spec)
	}
	if len(got.Specs) != len(want.Specs) {
		t.Errorf("specs %v != %v", got.Specs, want.Specs)
	}
	if !skipFlags && got.ExecutedInCompressedSpace != want.ExecutedInCompressedSpace {
		t.Errorf("compressed-space flag %v != %v", got.ExecutedInCompressedSpace, want.ExecutedInCompressedSpace)
	}
	if len(got.Frames) != len(want.Frames) {
		t.Fatalf("got %d frame results, want %d", len(got.Frames), len(want.Frames))
	}
	for i := range want.Frames {
		w, g := want.Frames[i], got.Frames[i]
		if g.Index != w.Index || g.Label != w.Label {
			t.Errorf("frame %d is (index %d, label %d), want (%d, %d)", i, g.Index, g.Label, w.Index, w.Label)
		}
		if len(g.Aggregates) != len(w.Aggregates) {
			t.Errorf("frame %d aggregates %v != %v", i, g.Aggregates, w.Aggregates)
		}
		for kind, wv := range w.Aggregates {
			if !approxEq(float64(g.Aggregates[kind]), float64(wv)) {
				t.Errorf("frame %d %s = %v, want %v", i, kind, g.Aggregates[kind], wv)
			}
		}
		if (g.Metric == nil) != (w.Metric == nil) {
			t.Errorf("frame %d metric presence mismatch", i)
		} else if w.Metric != nil && !approxEq(float64(*g.Metric), float64(*w.Metric)) {
			t.Errorf("frame %d metric = %v, want %v", i, *g.Metric, *w.Metric)
		}
		if (g.Region == nil) != (w.Region == nil) {
			t.Errorf("frame %d region presence mismatch", i)
		} else if w.Region != nil {
			if len(g.Region.Values) != len(w.Region.Values) {
				t.Fatalf("frame %d region size %d != %d", i, len(g.Region.Values), len(w.Region.Values))
			}
			for j := range w.Region.Values {
				if !approxEq(g.Region.Values[j], w.Region.Values[j]) {
					t.Errorf("frame %d region[%d] = %g, want %g", i, j, g.Region.Values[j], w.Region.Values[j])
				}
			}
		}
		if (g.Point == nil) != (w.Point == nil) {
			t.Errorf("frame %d point presence mismatch", i)
		} else if w.Point != nil && !approxEq(float64(*g.Point), float64(*w.Point)) {
			t.Errorf("frame %d point = %v, want %v", i, *g.Point, *w.Point)
		}
	}
	if (got.Pair == nil) != (want.Pair == nil) {
		t.Errorf("pair presence mismatch")
	} else if want.Pair != nil {
		if got.Pair.A != want.Pair.A || got.Pair.B != want.Pair.B || got.Pair.Kind != want.Pair.Kind {
			t.Errorf("pair %+v, want %+v", got.Pair, want.Pair)
		}
		if !approxEq(float64(got.Pair.Value), float64(want.Pair.Value)) {
			t.Errorf("pair value %v, want %v", got.Pair.Value, want.Pair.Value)
		}
	}
	if (got.Reduced == nil) != (want.Reduced == nil) {
		t.Errorf("reduced presence mismatch")
	} else if want.Reduced != nil {
		if got.Reduced.N != want.Reduced.N || got.Reduced.Frames != want.Reduced.Frames {
			t.Errorf("reduced state N=%d/frames=%d, want N=%d/frames=%d",
				got.Reduced.N, got.Reduced.Frames, want.Reduced.N, want.Reduced.Frames)
		}
		if len(got.Reduced.Values) != len(want.Reduced.Values) {
			t.Errorf("reduced values %v != %v", got.Reduced.Values, want.Reduced.Values)
		}
		for kind, wv := range want.Reduced.Values {
			if !approxEq(float64(got.Reduced.Values[kind]), float64(wv)) {
				t.Errorf("reduced %s = %v, want %v", kind, got.Reduced.Values[kind], wv)
			}
		}
	}
}

// TestCoordinatorMatchesSingleStore is the remote differential: for
// both codecs and every shard count 1..4, a coordinator over real HTTP
// shard servers and a local sharded dataset both answer the whole
// request battery identically (within 1e-9) to the same frames in one
// store.
func TestCoordinatorMatchesSingleStore(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ctx := context.Background()
	for _, spec := range []string{testGoblazSpec, testZfpSpec} {
		for shards := 1; shards <= 4; shards++ {
			n := 8 + rng.Intn(5)
			frames := randomFrames(rng, n, 16, 16)
			eng := openSingle(t, spec, frames)

			manifest := buildDataset(t, t.TempDir(), spec, frames, shards)
			man, err := shard.LoadManifest(manifest)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := shard.Open(manifest, query.Options{})
			if err != nil {
				t.Fatal(err)
			}
			co, _ := clusterOf(t, manifest, 1)

			for ri, req := range requestBattery(n, man.Shards[0].Frames) {
				want, err := eng.Run(ctx, req)
				if err != nil {
					t.Fatalf("%s shards=%d req=%d single: %v", spec, shards, ri, err)
				}
				reqCopy := *req
				local, err := ds.Query(ctx, &reqCopy)
				if err != nil {
					t.Fatalf("%s shards=%d req=%d sharded: %v", spec, shards, ri, err)
				}
				reqCopy = *req
				remote, err := co.Query(ctx, &reqCopy)
				if err != nil {
					t.Fatalf("%s shards=%d req=%d remote: %v", spec, shards, ri, err)
				}
				skipFlags := req.Metric != nil
				t.Run("", func(t *testing.T) {
					compareResults(t, want, local, false)
					compareResults(t, want, remote, skipFlags)
				})
			}
			ds.Close()
		}
	}
}

// TestCoordinatorFailoverMidBattery kills a replica halfway through the
// differential battery: every query must keep succeeding — and keep
// matching the single store — through failover to the sibling replica,
// with the failover counter and the endpoint health gauge recording it.
func TestCoordinatorFailoverMidBattery(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ctx := context.Background()
	n := 10
	frames := randomFrames(rng, n, 16, 16)
	eng := openSingle(t, testGoblazSpec, frames)

	manifest := buildDataset(t, t.TempDir(), testGoblazSpec, frames, 3)
	man, err := shard.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	co, servers := clusterOf(t, manifest, 2)

	reqs := requestBattery(n, man.Shards[0].Frames)
	run := func(phase string, reqs []*query.Request) {
		for ri, req := range reqs {
			want, err := eng.Run(ctx, req)
			if err != nil {
				t.Fatalf("%s req=%d single: %v", phase, ri, err)
			}
			reqCopy := *req
			got, err := co.Query(ctx, &reqCopy)
			if err != nil {
				t.Fatalf("%s req=%d remote: %v", phase, ri, err)
			}
			compareResults(t, want, got, req.Metric != nil)
		}
	}

	half := len(reqs) / 2
	run("healthy", reqs[:half])
	before := clusterFailovers.Value()

	// Kill shard 0's first replica: scatters to shard 0 route to it
	// first (affinity 0), so the very next battery run must fail over.
	servers[0][0].Close()
	run("degraded", reqs)

	if after := clusterFailovers.Value(); after <= before {
		t.Errorf("failover counter did not move: %d -> %d", before, after)
	}
	ep := co.groups[0].endpoints[0]
	if ep.State() == StateUp {
		t.Error("killed replica still reports up")
	}
	if v := clusterEndpointUp.With(ep.url).Value(); v != 0 {
		t.Errorf("killed replica health gauge = %d, want 0", v)
	}
	if live := co.groups[0].endpoints[1].State(); live != StateUp {
		t.Errorf("surviving replica is %s, want up", live)
	}
}

// TestProbeStateMachine walks one endpoint through the health states
// with deterministic probes against a server whose readiness toggles.
func TestProbeStateMachine(t *testing.T) {
	fx := conformance.NewFixture(t)
	storePath := fx.BuildStore(t, t.TempDir())
	l, err := api.OpenLocal(storePath, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var healthy atomic.Bool
	healthy.Store(true)
	srv := httptest.NewServer(httpapi.New(l, nil, httpapi.Options{
		Ready: func() bool { return healthy.Load() },
	}))
	t.Cleanup(srv.Close)

	topo := &Topology{
		Version: TopologyVersion,
		Shards:  []ShardSpec{{Name: "s0", Replicas: []string{srv.URL}}},
		Probe:   ProbeConfig{DownAfter: 2},
		Client:  ClientConfig{Retries: -1},
	}
	co, err := New(topo, Options{DisableProbes: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	ep := co.groups[0].endpoints[0]

	if s := ep.State(); s != StateUp {
		t.Fatalf("fresh endpoint is %s, want up", s)
	}
	co.ProbeNow()
	if s := ep.State(); s != StateUp {
		t.Fatalf("healthy probe left endpoint %s, want up", s)
	}

	okBefore := clusterProbes.With("ok").Value()
	failBefore := clusterProbes.With("fail").Value()

	healthy.Store(false)
	co.ProbeNow()
	if s := ep.State(); s != StateSuspect {
		t.Fatalf("one failed probe left endpoint %s, want suspect", s)
	}
	if v := clusterEndpointUp.With(ep.url).Value(); v != 0 {
		t.Errorf("demoted endpoint gauge = %d, want 0", v)
	}
	co.ProbeNow()
	if s := ep.State(); s != StateDown {
		t.Fatalf("downAfter consecutive failures left endpoint %s, want down", s)
	}

	healthy.Store(true)
	co.ProbeNow()
	if s := ep.State(); s != StateUp {
		t.Fatalf("recovered endpoint is %s, want up", s)
	}
	if v := clusterEndpointUp.With(ep.url).Value(); v != 1 {
		t.Errorf("recovered endpoint gauge = %d, want 1", v)
	}
	if clusterProbes.With("ok").Value() <= okBefore || clusterProbes.With("fail").Value() <= failBefore {
		t.Error("probe outcome counters did not move")
	}

	for s, want := range map[State]string{StateUp: "up", StateSuspect: "suspect", StateDown: "down", StateProbing: "probing"} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

// TestCoordinatorPayloadProxy checks the payload route: the
// coordinator serves each frame's raw compressed bytes, identical to
// the local sharded backend over the same files.
func TestCoordinatorPayloadProxy(t *testing.T) {
	fx := conformance.NewFixture(t)
	manifest := fx.BuildManifest(t, t.TempDir(), 2)
	co, _ := clusterOf(t, manifest, 1)
	local, err := api.OpenSharded(manifest, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	ctx := context.Background()
	for label := 0; label < conformance.FrameCount; label++ {
		want, err := payloadOf(ctx, local, label)
		if err != nil {
			t.Fatal(err)
		}
		got, err := payloadOf(ctx, co, label)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d payload differs: %d vs %d bytes", label, len(got), len(want))
		}
	}
	if _, err := payloadOf(ctx, co, 99); api.CodeOf(err) != api.CodeNotFound {
		t.Errorf("payload of missing frame: %v, want not_found", err)
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

// TestDiscoveryRejectsInconsistentShards covers the two startup
// invariants: shard servers must agree on the default codec spec, and
// no label may appear on two shards.
func TestDiscoveryRejectsInconsistentShards(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	frames := randomFrames(rng, 4, 8, 8)

	dirA := t.TempDir()
	manA, err := shard.LoadManifest(buildDataset(t, dirA, testGoblazSpec, frames, 1))
	if err != nil {
		t.Fatal(err)
	}
	srvA := serveStore(t, filepath.Join(dirA, manA.Shards[0].Path))

	dirB := t.TempDir()
	manB, err := shard.LoadManifest(buildDataset(t, dirB, testZfpSpec, frames, 1))
	if err != nil {
		t.Fatal(err)
	}
	srvB := serveStore(t, filepath.Join(dirB, manB.Shards[0].Path))

	mismatched := &Topology{
		Version: TopologyVersion,
		Shards: []ShardSpec{
			{Name: "a", Replicas: []string{srvA.URL}},
			{Name: "b", Replicas: []string{srvB.URL}},
		},
	}
	if _, err := New(mismatched, Options{DisableProbes: true}); err == nil {
		t.Error("shards with different default specs must not open")
	}

	duplicated := &Topology{
		Version: TopologyVersion,
		Shards: []ShardSpec{
			{Name: "a", Replicas: []string{srvA.URL}},
			{Name: "b", Replicas: []string{srvA.URL}},
		},
	}
	if _, err := New(duplicated, Options{DisableProbes: true}); err == nil {
		t.Error("two shards serving the same labels must not open")
	}
}

// TestHashPlacementVerification: a topology claiming hash placement
// opens only when the discovered inventory matches the seeded ring.
func TestHashPlacementVerification(t *testing.T) {
	fx := conformance.NewFixture(t)
	manifest := fx.BuildManifest(t, t.TempDir(), 2)
	man, err := shard.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(manifest)
	var reps []string
	for _, sh := range man.Shards {
		reps = append(reps, serveStore(t, filepath.Join(dir, sh.Path)).URL)
	}
	topo := &Topology{
		Version:   TopologyVersion,
		Placement: PlacementHash,
		Shards: []ShardSpec{
			{Name: "s0", Replicas: []string{reps[0]}},
			{Name: "s1", Replicas: []string{reps[1]}},
		},
	}
	// The fixture was split contiguously, which no ring seed reproduces
	// for every label — verification must reject some label's placement.
	if _, err := New(topo, Options{DisableProbes: true}); err == nil {
		t.Skip("contiguous split happens to match the ring; nothing to verify")
	}
	topo.Placement = PlacementContiguous
	co, err := New(topo, Options{DisableProbes: true})
	if err != nil {
		t.Fatalf("contiguous placement rejected: %v", err)
	}
	co.Close()
}
