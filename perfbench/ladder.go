package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tensor"
)

// ladderReps is how many timed calls each ladder step takes the median
// of, after one untimed warm-up call.
const ladderReps = 11

// ladder times the same frame through each layer's public functions, one
// call at a time, from core up to HTTP.
type ladder struct {
	tr   *tracer
	root *spanRef
	rows map[string]float64
}

// time records the median of ladderReps calls of fn, in unit, as row name.
func (l *ladder) time(name string, unit time.Duration, fn func() error) error {
	if err := fn(); err != nil {
		return fmt.Errorf("ladder %s: %w", name, err)
	}
	step := l.tr.begin("ladder."+name, l.root)
	defer step.end()
	ds := make([]time.Duration, ladderReps)
	for i := range ds {
		start := time.Now()
		err := fn()
		ds[i] = time.Since(start)
		l.tr.record(name, step, start, start.Add(ds[i]))
		if err != nil {
			return fmt.Errorf("ladder %s: %w", name, err)
		}
	}
	l.rows[name] = medianIn(ds, unit)
	return nil
}

func medianIn(ds []time.Duration, unit time.Duration) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2]) / float64(unit)
}

func compressorOf(spec string) (codec.Coder, *core.Compressor, error) {
	coder, err := lookupCoder(spec)
	if err != nil {
		return nil, nil, err
	}
	comp, err := coreOf(coder)
	return coder, comp, err
}

// writeStore packs frames (labels 0..n-1) into one store file.
func writeStore(path string, coder codec.Coder, frames []*tensor.Tensor) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeFrames(f, coder, frames); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runLadder builds its own small fixtures under dir — four 64³ MRI
// frames as one store and as a 2-shard dataset, four fission steps split
// over two shard mounts, one shallow-water checkpoint — serves them from
// one unloaded `goblaz serve`, and times every step.
func runLadder(ctx context.Context, env setupEnv, tr *tracer) (map[string]float64, error) {
	dir := env.dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &ladder{tr: tr, root: tr.begin("ladder", nil), rows: map[string]float64{}}
	defer l.root.end()

	vols := make([]*tensor.Tensor, 4)
	for i := range vols {
		vols[i] = data.MRIVolume(int64(i+1), volumeSide, volumeSide, volumeSide)
	}
	coder, comp, err := compressorOf(volumeSpec)
	if err != nil {
		return nil, err
	}
	storePath := filepath.Join(dir, "ladder.gbz")
	if err := writeStore(storePath, coder, vols); err != nil {
		return nil, err
	}
	manifest := filepath.Join(dir, "ladder.json")
	if err := packDataset(manifest, volumeSpec, vols, 2); err != nil {
		return nil, err
	}
	fis := data.FissionSeries(env.seed, volumeSide, volumeSide, volumeSide)[5:9]
	if err := packDataset(filepath.Join(dir, "fis.json"), volumeSpec, fis, 2); err != nil {
		return nil, err
	}
	pool, err := checkpointPool(1)
	if err != nil {
		return nil, err
	}
	ck := pool[0]
	srv, err := startServe(ctx, env.bin, dir, "ladder", append(ingestMount(dir), "ladder="+storePath,
		"c0="+filepath.Join(dir, "fis-000.gbz"), "c1="+filepath.Join(dir, "fis-001.gbz"))...)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	off, box := []int{8, 16, 24}, []int{8, 8, 8}
	aggs := []string{query.AggMean, query.AggVariance, query.AggMin, query.AggMax}
	ms, us := time.Millisecond, time.Microsecond

	// bits/core: payload parse, inverse transform, compressed-space ops.
	r, err := store.OpenReaderMmap(storePath)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	payload, err := r.Payload(0)
	if err != nil {
		return nil, err
	}
	payload1, err := r.Payload(1)
	if err != nil {
		return nil, err
	}
	var ca, ca1 *core.CompressedArray
	if ca1, err = core.Decode(payload1); err != nil {
		return nil, err
	}
	_, ckComp, err := compressorOf(checkpointSpec)
	if err != nil {
		return nil, err
	}
	var cka *core.CompressedArray
	var cc codec.Compressed
	steps := []struct {
		name string
		unit time.Duration
		fn   func() error
	}{
		{"core.decode_ms", ms, func() (err error) { ca, err = core.Decode(payload); return err }},
		{"core.decompress_ms", ms, func() error { _, err := comp.Decompress(ca); return err }},
		{"core.region_ms", ms, func() error { _, err := comp.DecompressRegion(ca, off, box); return err }},
		{"core.ops_us", us, func() error {
			if _, err := comp.Mean(ca); err != nil {
				return err
			}
			if _, err := comp.L2Norm(ca); err != nil {
				return err
			}
			_, err := comp.CosineSimilarity(ca, ca1)
			return err
		}},
		{"core.compress_ms", ms, func() (err error) { cka, err = ckComp.Compress(ck); return err }},
		{"core.encode_ms", ms, func() error { _, err := core.Encode(cka); return err }},
		// codec: the same calls through the registry adapter.
		{"codec.decode_ms", ms, func() (err error) { cc, err = coder.Decode(payload); return err }},
		{"codec.decompress_ms", ms, func() error { _, err := coder.Decompress(cc); return err }},
		// store: the mmap reader.
		{"store.payload_us", us, func() error { _, err := r.Payload(0); return err }},
		{"store.decompress_ms", ms, func() error { _, err := r.Decompress(0); return err }},
	}
	for _, s := range steps {
		if err := l.time(s.name, s.unit, s.fn); err != nil {
			return nil, err
		}
	}

	// query: one engine with the serving cache, one without.
	hot := query.New(r, query.Options{CacheBytes: serveCacheMiB << 20})
	cold := query.New(r, query.Options{})
	zero, one := 0, 1
	from, to := 0, len(vols)
	statsReq := &query.Request{Select: query.Selector{Labels: "0"}, Aggregates: aggs}
	regionReq := &query.Request{Select: query.Selector{Labels: "0"}, Region: &query.RegionRequest{Offset: off, Shape: box}}
	reduceReq := &query.Request{Select: query.Selector{From: &from, To: &to}, Reduce: reduceAggs}
	compareReq := &query.Request{Select: query.Selector{Labels: "1"}, Metric: &query.MetricRequest{Kind: query.MetricCosine, Against: &zero}}
	crossReq := &query.Request{Select: query.Selector{Labels: "2"}, Metric: &query.MetricRequest{Kind: query.MetricCosine, Against: &one}}
	run := func(q func(context.Context, *query.Request) (*query.Result, error), req *query.Request) func() error {
		return func() error { _, err := q(ctx, req); return err }
	}

	sh, err := api.OpenSharded(manifest, query.Options{})
	if err != nil {
		return nil, err
	}
	defer sh.Close()
	loc, err := api.OpenLocal(storePath, query.Options{CacheBytes: serveCacheMiB << 20})
	if err != nil {
		return nil, err
	}
	defer loc.Close()
	cl, err := newClient(srv.url("/v1/stores/ladder"))
	if err != nil {
		return nil, err
	}
	live, err := newClient(srv.url("/v1/datasets/live"))
	if err != nil {
		return nil, err
	}
	topo := &cluster.Topology{Version: cluster.TopologyVersion, Dataset: "fis", Shards: []cluster.ShardSpec{
		{Name: "c0", Replicas: []string{srv.url("/v1/stores/c0")}},
		{Name: "c1", Replicas: []string{srv.url("/v1/stores/c1")}},
	}}
	co, err := cluster.New(topo, cluster.Options{DisableProbes: true})
	if err != nil {
		return nil, err
	}
	defer co.Close()
	var httpLabel int
	ingestOne := func(b api.Ingestor) func() error {
		return func() error {
			httpLabel++
			_, err := b.Ingest(ctx, []api.IngestFrame{{Label: httpLabel, Shape: ck.Shape(), Data: ck.Data()}})
			return err
		}
	}

	upper := []struct {
		name string
		fn   func() error
	}{
		{"query.stats_hot_ms", run(hot.Run, statsReq)},
		{"query.stats_cold_ms", run(cold.Run, statsReq)},
		{"query.region_ms", run(cold.Run, regionReq)},
		{"query.reduce_ms", run(cold.Run, reduceReq)},
		{"query.compare_ms", run(cold.Run, compareReq)},
		{"shard.region_ms", func() error { _, err := sh.Region(ctx, 0, off, box); return err }},
		{"shard.stats_cold_ms", func() error { _, err := sh.Stats(ctx, 0, aggs); return err }},
		{"api.frame_ms", func() error { _, err := loc.Frame(ctx, 0); return err }},
		{"api.region_ms", func() error { _, err := loc.Region(ctx, 0, off, box); return err }},
		{"httpapi.frame_ms", func() error { _, err := cl.Frame(ctx, 0); return err }},
		{"httpapi.region_ms", func() error { _, err := cl.Region(ctx, 0, off, box); return err }},
		{"httpapi.stats_hot_ms", func() error { _, err := cl.Stats(ctx, 0, aggs); return err }},
		{"httpapi.ingest_ms", ingestOne(live)},
		{"cluster.stats_hot_ms", func() error { _, err := co.Stats(ctx, 0, aggs); return err }},
		{"cluster.reduce_ms", run(co.Query, reduceReq)},
		{"cluster.compare_ms", run(co.Query, compareReq)},
		{"cluster.compare_cross_ms", run(co.Query, crossReq)},
	}
	for _, s := range upper {
		if err := l.time(s.name, ms, s.fn); err != nil {
			return nil, err
		}
	}
	// The server's own time for the timed frame requests, from its
	// access log.
	if l.rows["httpapi.frame_server_ms"], err = serverMillis(filepath.Join(dir, "ladder.log"), "/v1/stores/ladder/frames/0"); err != nil {
		return nil, err
	}

	if err := ladderIngest(ctx, l, filepath.Join(dir, "inproc.gbz"), ck); err != nil {
		return nil, err
	}

	// Self time of each layer on the Frame path: its step minus the step
	// below it. The rows telescope, so they sum to httpapi.frame_ms.
	rw := l.rows
	coreFrame := rw["core.decode_ms"] + rw["core.decompress_ms"]
	codecFrame := rw["codec.decode_ms"] + rw["codec.decompress_ms"]
	rw["self.core_ms"] = coreFrame
	rw["self.codec_ms"] = codecFrame - coreFrame
	rw["self.store_ms"] = rw["store.decompress_ms"] - codecFrame
	rw["self.api_ms"] = rw["api.frame_ms"] - rw["store.decompress_ms"]
	rw["self.httpapi_server_ms"] = rw["httpapi.frame_server_ms"] - rw["api.frame_ms"]
	rw["self.httpapi_client_ms"] = rw["httpapi.frame_ms"] - rw["httpapi.frame_server_ms"]
	return rw, nil
}

// serverMillis returns the median duration, in ms, of the last
// ladderReps requests for path in a `goblaz serve` access log
// ("... path=P status=S bytes=B dur=D ...").
func serverMillis(logPath, path string) (float64, error) {
	b, err := os.ReadFile(logPath)
	if err != nil {
		return 0, err
	}
	var ds []time.Duration
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.Contains(line, " path="+path+" ") {
			continue
		}
		_, rest, ok := strings.Cut(line, " dur=")
		if !ok {
			continue
		}
		d, err := time.ParseDuration(strings.Fields(rest)[0])
		if err != nil {
			return 0, fmt.Errorf("access log %s: %w", logPath, err)
		}
		ds = append(ds, d)
	}
	if len(ds) < ladderReps {
		return 0, fmt.Errorf("access log %s: %d requests for %s, want %d", logPath, len(ds), path, ladderReps)
	}
	return medianIn(ds[len(ds)-ladderReps:], time.Millisecond), nil
}

// ladderIngest times the write path in process: one single-frame Ingest
// (WAL append + fsync), a Commit of 64 pending frames, and a Compact.
func ladderIngest(ctx context.Context, l *ladder, path string, ck *tensor.Tensor) error {
	st, err := ingest.Create(path, ingest.Options{Spec: checkpointSpec, CacheBytes: serveCacheMiB << 20})
	if err != nil {
		return err
	}
	defer st.Close()
	label := 0
	one := func() error {
		label++
		_, err := st.Ingest(ctx, []api.IngestFrame{{Label: label, Shape: ck.Shape(), Data: ck.Data()}})
		return err
	}
	if err := l.time("ingest.append_ms", time.Millisecond, one); err != nil {
		return err
	}
	var commits, compacts []time.Duration
	for round := 0; round < 3; round++ {
		for st.Pending() < 64 {
			if err := one(); err != nil {
				return err
			}
		}
		span := l.tr.begin("ingest.commit_ms", l.root)
		start := time.Now()
		if err := st.Commit(ctx); err != nil {
			return err
		}
		commits = append(commits, time.Since(start))
		span.end()
		span = l.tr.begin("ingest.compact_ms", l.root)
		start = time.Now()
		if err := st.Compact(); err != nil {
			return err
		}
		compacts = append(compacts, time.Since(start))
		span.end()
	}
	l.rows["ingest.commit_ms"] = medianIn(commits, time.Millisecond)
	l.rows["ingest.compact_ms"] = medianIn(compacts, time.Millisecond)
	return nil
}
