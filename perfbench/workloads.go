package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/query"
	"repro/internal/scalar"
	"repro/internal/shard"
	"repro/internal/sim/shallowwater"
	"repro/internal/store"
	"repro/internal/tensor"
)

// The corpus and serving parameters every comparison shares.
const (
	volumeSpec     = "goblaz:block=8x8x8" // 64³ volumes in 8³ blocks
	checkpointSpec = "goblaz:block=8x8"   // 128×256 shallow-water checkpoints
	serveCacheMiB  = 64                   // `goblaz serve` default -cache-bytes
	volumeSide     = 64
	scanFrames     = 48 // 96 MiB decoded: 1.5× the serving cache
	reduceWindow   = 4  // frames per windowed reduce on scan and ingest
	poolSize       = 8  // shallow-water checkpoints replayed by the ingest op
	nproc          = 2  // connections the load generator may use
	scanThink      = 4 * time.Millisecond
)

var (
	checkpointShape = []int{128, 256}
	// The ingest mount's flush policy, the same on every workload: a
	// commit every 16 frames and a compaction once superseded footers
	// pass 32 KiB, so a run sees many commits and several compactions, with
	// margin for a host a few times slower.
	ingestPolicy = []string{"-commit-every", "16", "-commit-interval", "0", "-compact-bytes", strconv.Itoa(32 << 10)}
	reduceAggs   = []string{query.AggMean, query.AggVariance, query.AggL2Norm}
)

// setupEnv is what a workload's set-up needs.
type setupEnv struct {
	bin  string // goblaz binary
	dir  string // scratch directory of this set-up
	seed int64
}

// prepared is a workload ready to measure: servers up, oracle built,
// caches warm.
type prepared struct {
	fleet  fleet
	tgt    *target
	config map[string]any // recorded in the report
	// step performs op k of the workload's deterministic schedule.
	step func(ctx context.Context, k int) (op string, done time.Time, err error)
	// drive runs the measured load for d and returns its wall time.
	drive func(ctx context.Context, d time.Duration, rec *recorder) (time.Duration, map[string]any)
	// ratio returns raw bytes ÷ bytes on disk, read after the run.
	ratio func() (float64, error)
	// storeBytes returns the ingest mount's store file size.
	storeBytes func() int64
}

func (p *prepared) close() { p.fleet.stop() }

type workload struct {
	name  string
	why   string
	setup func(ctx context.Context, env setupEnv) (*prepared, error)
}

var workloads = []workload{
	{"scan", "2 clients walk 48 64^3 MRI frames (1.5x the 64 MiB cache) cyclically, so the cache never hits: payload parse, inverse transform, store and frame bodies do the work", setupScan},
	{"analytics", "open-loop dashboard on the 15 fission steps behind a 2-shard cluster with admission control: cache-hit stats, compressed-space compare and reduce, scatter-gather", setupAnalytics},
	{"ingest", "a producer streams 128x256 shallow-water checkpoints into an empty live store (WAL fsync, commits, compaction) while a reader queries the newest frame", setupIngest},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func lookupCoder(spec string) (codec.Coder, error) {
	cd, err := codec.Lookup(spec)
	if err != nil {
		return nil, err
	}
	coder, ok := cd.(codec.Coder)
	if !ok {
		return nil, fmt.Errorf("codec %s cannot serialize", spec)
	}
	return coder, nil
}

// checkpointPool runs the shallow-water model (the paper's third
// application) at 128×256 and keeps n checkpoints, three steps apart
// after a fixed spin-up.
func checkpointPool(n int) ([]*tensor.Tensor, error) {
	ft, err := scalar.ParseFloatType("float32")
	if err != nil {
		return nil, err
	}
	cfg := shallowwater.DefaultConfig(ft)
	cfg.Ny, cfg.Nx = checkpointShape[0], checkpointShape[1]
	sim, err := shallowwater.New(cfg)
	if err != nil {
		return nil, err
	}
	sim.Run(30)
	pool := make([]*tensor.Tensor, n)
	for i := range pool {
		sim.Run(3)
		pool[i] = sim.Height()
	}
	return pool, nil
}

// ingestMount returns the serve flags mounting an empty live store.
func ingestMount(dir string) []string {
	return append([]string{"-ingest", "live=" + filepath.Join(dir, "live.gbz"), "-ingest-spec", checkpointSpec}, ingestPolicy...)
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// packedRatio is raw float64 bytes ÷ the packed dataset's shard files.
func packedRatio(raw int64, manifest string) func() (float64, error) {
	return func() (float64, error) {
		m, err := shard.LoadManifest(manifest)
		if err != nil {
			return 0, err
		}
		var disk int64
		for _, s := range m.Shards {
			disk += fileSize(filepath.Join(filepath.Dir(manifest), s.Path))
		}
		return float64(raw) / float64(disk), nil
	}
}

// packDataset packs frames (labels 0..n-1) into a sharded dataset.
func packDataset(path, spec string, frames []*tensor.Tensor, shards int) error {
	coder, err := lookupCoder(spec)
	if err != nil {
		return err
	}
	labels := make([]int, len(frames))
	for i := range labels {
		labels[i] = i
	}
	_, err = shard.WriteDataset(path, coder, labels, shards, 0, func(i int) (*tensor.Tensor, error) { return frames[i], nil })
	return err
}

func byLabel(frames []*tensor.Tensor) map[int]*tensor.Tensor {
	m := make(map[int]*tensor.Tensor, len(frames))
	for i, f := range frames {
		m[i] = f
	}
	return m
}

// splitmix hashes k into a well-mixed 64-bit value: the cheap,
// allocation-free source of the schedules' per-op choices.
func splitmix(seed int64, k int) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// setupScan packs 48 MRI volumes (fixed generator seeds 1..48; the
// benchmark seed picks the region boxes) as a 2-shard dataset and serves
// it from one process with the default 64 MiB cache.
func setupScan(ctx context.Context, env setupEnv) (*prepared, error) {
	vols := make([]*tensor.Tensor, scanFrames)
	if err := parallel(scanFrames, func(i int) error {
		vols[i] = data.MRIVolume(int64(i+1), volumeSide, volumeSide, volumeSide)
		return nil
	}); err != nil {
		return nil, err
	}
	decoded := int64(scanFrames) * int64(tensor.Prod(vols[0].Shape())) * 8
	if cache := int64(serveCacheMiB) << 20; decoded*2 < cache*3 {
		return nil, fmt.Errorf("scan premise: decoded corpus %d B is under 1.5× the %d B cache", decoded, cache)
	}
	manifest := filepath.Join(env.dir, "scan.json")
	if err := packDataset(manifest, volumeSpec, vols, 2); err != nil {
		return nil, err
	}
	ds, err := shard.Open(manifest, query.Options{})
	if err != nil {
		return nil, err
	}
	var starts []int
	var pairs [][2]int
	for f := 0; f < scanFrames; f++ {
		pairs = append(pairs, [2]int{f, (f + 1) % scanFrames})
		if f+reduceWindow <= scanFrames {
			starts = append(starts, f)
		}
	}
	or, err := buildOracle(ctx, oracleSpec{
		src: ds, raw: byLabel(vols), aggs: []string{query.AggMean, query.AggMin, query.AggMax},
		reduce: reduceAggs, window: reduceWindow, windowStarts: starts, pairs: pairs,
		regShape: []int{8, 8, 8}, rng: rand.New(rand.NewSource(env.seed)),
	})
	ds.Close()
	if err != nil {
		return nil, err
	}
	pool, err := checkpointPool(poolSize)
	if err != nil {
		return nil, err
	}
	srv, err := startServe(ctx, env.bin, env.dir, "scan", append(ingestMount(env.dir), "scan="+manifest)...)
	if err != nil {
		return nil, err
	}
	p := &prepared{fleet: fleet{srv}, ratio: packedRatio(decoded, manifest),
		storeBytes: func() int64 { return fileSize(filepath.Join(env.dir, "live.gbz")) }}
	if p.tgt, err = newTarget(srv.url("/v1/datasets/scan"), srv.url("/v1/datasets/live"), or, pool); err != nil {
		p.close()
		return nil, err
	}
	p.step = func(ctx context.Context, k int) (string, time.Time, error) {
		f, op := scanVisit(k)
		done, err := scanOp(ctx, p.tgt, op, f)
		return op, done, err
	}
	p.drive = func(ctx context.Context, d time.Duration, rec *recorder) (time.Duration, map[string]any) {
		var visit counter
		elapsed := closedLoop(ctx, nproc, d, func(ctx context.Context, _ int) {
			// A seeded think time of up to 4 ms keeps the two clients
			// from locking into one pairing of concurrent ops for a
			// whole run: the op sequence is periodic, and each pairing
			// contends differently.
			k := visit.next()
			time.Sleep(time.Duration(splitmix(env.seed, k) % uint64(scanThink)))
			start := time.Now()
			op, done, err := p.step(ctx, k)
			rec.add(op, done.Sub(start), err)
		})
		return elapsed, nil
	}
	p.config = map[string]any{
		"frames": scanFrames, "shape": vols[0].Shape(), "spec": volumeSpec, "shards": 2,
		"decoded_bytes": decoded, "cache_bytes": serveCacheMiB << 20,
		"load": fmt.Sprintf("closed loop, %d clients on a shared cyclic cursor, think time 0-%v", nproc, scanThink),
	}
	// Warm up connections and page in the server without touching the
	// decoded-frame cache (stats is the only op that fills it).
	for _, op := range []string{opFrame, opRegion, opCompare, opReduce, opIngest} {
		if _, err := scanOp(ctx, p.tgt, op, scanFrames/2); err != nil {
			p.close()
			return nil, fmt.Errorf("scan warm-up %s: %w", op, err)
		}
	}
	return p, nil
}

// scanVisit is visit k of the scan: frame k mod n, with the op rotating
// with the cycle. A frame sees stats — the only op that fills the
// decoded-frame cache — once every len(allOps) cycles, and every other
// frame has been decoded into the cache since; so the LRU, smaller than
// the corpus, never holds a frame when it is revisited.
func scanVisit(k int) (frame int, op string) {
	frame, cycle := k%scanFrames, k/scanFrames
	return frame, allOps[(frame+cycle)%len(allOps)]
}

func scanOp(ctx context.Context, t *target, op string, f int) (time.Time, error) {
	switch op {
	case opFrame:
		return t.frame(ctx, f)
	case opRegion:
		return t.region(ctx, f)
	case opStats:
		return t.stats(ctx, f)
	case opCompare:
		return t.compare(ctx, f, (f+1)%scanFrames)
	case opReduce:
		return t.reduce(ctx, min(f, scanFrames-reduceWindow))
	}
	return t.ingest(ctx)
}

func newTarget(readURL, writeURL string, or *oracle, pool []*tensor.Tensor) (*target, error) {
	r, err := newClient(readURL)
	if err != nil {
		return nil, err
	}
	w, err := newClient(writeURL)
	if err != nil {
		return nil, err
	}
	return &target{read: r, write: w, or: or, pool: pool}, nil
}

// The analytics schedule repeats every second and is the same for every
// seed, so that only the data varies between seeds. The dataset-wide
// reduce, which takes both cores for ~170 ms, is due alone at the top of
// the second. From 300 ms on, four dashboard refreshes 175 ms apart each
// fire one request per widget at once, cheapest first; with two
// connections the later widgets wait their turn, the same way in every
// refresh, and a refresh (~120 ms) ends well before the next is due.
const (
	analyticsRefreshes = 4
	refreshStart       = 300 * time.Millisecond
	refreshEvery       = 175 * time.Millisecond
)

// analyticsWidgets is one refresh, cheapest first. Its two stats start
// together on the two connections, so every stats sees the same queue.
var analyticsWidgets = []string{opStats, opStats, opRegion, opIngest, opCompare, opFrame}

// slot is one request of the analytics schedule: its op and when it is
// due within the second.
type slot struct {
	at time.Duration
	op string
}

func analyticsBlock() []slot {
	block := []slot{{0, opReduce}}
	for r := 0; r < analyticsRefreshes; r++ {
		for _, op := range analyticsWidgets {
			block = append(block, slot{refreshStart + time.Duration(r)*refreshEvery, op})
		}
	}
	return block
}

// analyticsHot is the hot set of per-frame requests: four time steps,
// two in each shard.
var analyticsHot = []int{3, 6, 9, 12}

// setupAnalytics packs the 15 fission time steps as two shards, serves
// each from its own process and puts a `serve -topology` coordinator in
// front, every process with admission control on.
func setupAnalytics(ctx context.Context, env setupEnv) (*prepared, error) {
	steps := data.FissionSeries(env.seed, volumeSide, volumeSide, volumeSide)
	n := len(steps)
	decoded := int64(n) * int64(tensor.Prod(steps[0].Shape())) * 8
	if decoded > int64(serveCacheMiB)<<20 {
		return nil, fmt.Errorf("analytics premise: decoded corpus %d B exceeds the cache", decoded)
	}
	manifest := filepath.Join(env.dir, "fission.json")
	if err := packDataset(manifest, volumeSpec, steps, 2); err != nil {
		return nil, err
	}
	ds, err := shard.Open(manifest, query.Options{})
	if err != nil {
		return nil, err
	}
	var pairs [][2]int
	for i := 0; i+1 < n; i++ {
		pairs = append(pairs, [2]int{i, i + 1})
	}
	rng := rand.New(rand.NewSource(env.seed))
	or, err := buildOracle(ctx, oracleSpec{
		src: ds, raw: byLabel(steps),
		aggs:   []string{query.AggMean, query.AggVariance, query.AggMin, query.AggMax},
		reduce: reduceAggs, window: n, windowStarts: []int{0}, pairs: pairs,
		regShape: []int{8, 8, 8}, rng: rng,
	})
	ds.Close()
	if err != nil {
		return nil, err
	}
	hot := analyticsHot
	pool, err := checkpointPool(poolSize)
	if err != nil {
		return nil, err
	}
	m, err := shard.LoadManifest(manifest)
	if err != nil {
		return nil, err
	}
	limit := []string{"-max-concurrent", strconv.Itoa(nproc), "-max-queue", "64"}
	p := &prepared{ratio: packedRatio(decoded, manifest),
		storeBytes: func() int64 { return fileSize(filepath.Join(env.dir, "live.gbz")) }}
	topo := &cluster.Topology{Version: cluster.TopologyVersion, Dataset: "fission"}
	for i, s := range m.Shards {
		name := fmt.Sprintf("shard%d", i)
		srv, err := startServe(ctx, env.bin, env.dir, name,
			append(limit, "s="+filepath.Join(env.dir, s.Path))...)
		if err != nil {
			p.close()
			return nil, err
		}
		p.fleet = append(p.fleet, srv)
		topo.Shards = append(topo.Shards, cluster.ShardSpec{Name: name, Replicas: []string{srv.url("/v1/stores/s")}})
	}
	topoPath := filepath.Join(env.dir, "topology.json")
	if err := topo.Write(topoPath); err != nil {
		p.close()
		return nil, err
	}
	coord, err := startServe(ctx, env.bin, env.dir, "coordinator",
		append(append([]string{"-topology", topoPath}, limit...), ingestMount(env.dir)...)...)
	if err != nil {
		p.close()
		return nil, err
	}
	p.fleet = append(p.fleet, coord)
	if p.tgt, err = newTarget(coord.url("/v1/datasets/fission"), coord.url("/v1/datasets/live"), or, pool); err != nil {
		p.close()
		return nil, err
	}

	// Slot s of the one-second block holds the occ[s]-th occurrence of
	// its op within the block.
	block := analyticsBlock()
	occ := make([]int, len(block))
	perOp := map[string]int{}
	for s, sl := range block {
		occ[s] = perOp[sl.op]
		perOp[sl.op]++
	}
	p.step = func(ctx context.Context, k int) (string, time.Time, error) {
		s := k % len(block)
		op := block[s].op
		i := (k/len(block))*perOp[op] + occ[s] // how many of op came before
		var done time.Time
		var err error
		switch op {
		case opStats:
			done, err = p.tgt.stats(ctx, hot[i%len(hot)])
		case opFrame:
			done, err = p.tgt.frame(ctx, hot[i%len(hot)])
		case opRegion:
			done, err = p.tgt.region(ctx, hot[(i+1)%len(hot)])
		case opCompare:
			pr := pairs[i%len(pairs)]
			done, err = p.tgt.compare(ctx, pr[0], pr[1])
		case opReduce:
			done, err = p.tgt.reduce(ctx, 0)
		default:
			done, err = p.tgt.ingest(ctx)
		}
		return op, done, err
	}
	due := func(k int) time.Duration { return time.Duration(k/len(block))*time.Second + block[k%len(block)].at }
	p.drive = func(ctx context.Context, d time.Duration, rec *recorder) (time.Duration, map[string]any) {
		start := time.Now()
		st := openLoop(ctx, due, nproc, d, func(ctx context.Context, k int, due time.Time) {
			op, done, err := p.step(ctx, k)
			rec.add(op, done.Sub(due), err)
		})
		return time.Since(start), map[string]any{"generator": st}
	}
	p.config = map[string]any{
		"frames": n, "shape": steps[0].Shape(), "spec": volumeSpec, "shards": 2, "hot_set": hot,
		"decoded_bytes": decoded, "cache_bytes": serveCacheMiB << 20, "max_concurrent": nproc,
		"load": fmt.Sprintf("open loop at %d/s over at most %d connections", len(block), nproc), "mix_per_s": perOp,
		"schedule": fmt.Sprintf("reduce at 0 ms; from %v, %d refreshes %v apart, each firing %v at once",
			refreshStart, analyticsRefreshes, refreshEvery, analyticsWidgets),
		"shard_boundary": m.Shards[0].Frames,
	}
	// Warm-up: fill the shard caches with the hot set, then run every
	// other op once (compare on the pair that straddles the shards).
	warm := []func() (time.Time, error){
		func() (time.Time, error) { return p.tgt.frame(ctx, hot[0]) },
		func() (time.Time, error) { return p.tgt.region(ctx, hot[1]) },
		func() (time.Time, error) { b := m.Shards[0].Frames; return p.tgt.compare(ctx, b-1, b) },
		func() (time.Time, error) { return p.tgt.reduce(ctx, 0) },
		func() (time.Time, error) { return p.tgt.ingest(ctx) },
	}
	for _, f := range hot {
		warm = append(warm, func() (time.Time, error) { return p.tgt.stats(ctx, f) })
	}
	for _, fn := range warm {
		if _, err := fn(); err != nil {
			p.close()
			return nil, fmt.Errorf("analytics warm-up: %w", err)
		}
	}
	return p, nil
}

// setupIngest starts one `serve -ingest` process on an empty store and
// builds the oracle of the checkpoint pool from an in-memory store
// written with the same codec.
func setupIngest(ctx context.Context, env setupEnv) (*prepared, error) {
	pool, err := checkpointPool(poolSize)
	if err != nil {
		return nil, err
	}
	// The pool twice over, labels 0..2P-1, so every window of the last
	// reduceWindow committed frames has a precomputed twin.
	coder, err := lookupCoder(checkpointSpec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := writeFrames(&buf, coder, append(append([]*tensor.Tensor(nil), pool...), pool...)); err != nil {
		return nil, err
	}
	src, err := store.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		return nil, err
	}
	var pairs [][2]int
	var starts []int
	for k := 0; k < poolSize; k++ {
		pairs = append(pairs, [2]int{(k + poolSize - 1) % poolSize, k})
		starts = append(starts, k)
	}
	or, err := buildOracle(ctx, oracleSpec{
		src: src, raw: byLabel(pool),
		key: func(l int) int { return l % poolSize }, wkey: func(s int) int { return s % poolSize },
		// Compressed-space aggregates: the live dashboard's per-frame
		// numbers come straight from the fresh payload.
		aggs: []string{query.AggMean, query.AggVariance, query.AggL2Norm}, reduce: reduceAggs,
		window: reduceWindow, windowStarts: starts, pairs: pairs,
		regShape: []int{16, 16}, rng: rand.New(rand.NewSource(env.seed)),
	})
	if err != nil {
		return nil, err
	}

	srv, err := startServe(ctx, env.bin, env.dir, "ingest", ingestMount(env.dir)...)
	if err != nil {
		return nil, err
	}
	live := srv.url("/v1/datasets/live")
	storePath := filepath.Join(env.dir, "live.gbz")
	p := &prepared{fleet: fleet{srv}, storeBytes: func() int64 { return fileSize(storePath) }}
	if p.tgt, err = newTarget(live, live, or, pool); err != nil {
		p.close()
		return nil, err
	}
	frameBytes := int64(tensor.Prod(checkpointShape)) * 8
	p.ratio = func() (float64, error) {
		raw := p.tgt.nextLabel.Load() * frameBytes
		return float64(raw) / float64(fileSize(storePath)+fileSize(storePath+".wal")), nil
	}
	readOps := []string{opFrame, opRegion, opStats, opCompare, opReduce}
	// Read k picks its op from a seeded hash; every read is of the
	// newest committed frame (or window ending there), as a dashboard
	// following the simulation would read.
	read := func(ctx context.Context, k int) (string, time.Time, error) {
		op := readOps[splitmix(env.seed, k)%uint64(len(readOps))]
		n := int(p.tgt.committed.Load())
		label := n - 1
		var done time.Time
		var err error
		switch op {
		case opFrame:
			done, err = p.tgt.frame(ctx, label)
		case opRegion:
			done, err = p.tgt.region(ctx, label)
		case opStats:
			done, err = p.tgt.stats(ctx, label)
		case opCompare:
			done, err = p.tgt.compare(ctx, label-1, label)
		default:
			done, err = p.tgt.reduce(ctx, n-reduceWindow)
		}
		return op, done, err
	}
	p.step = func(ctx context.Context, k int) (string, time.Time, error) {
		if k%2 == 0 {
			done, err := p.tgt.ingest(ctx)
			return opIngest, done, err
		}
		return read(ctx, k)
	}
	p.drive = func(ctx context.Context, d time.Duration, rec *recorder) (time.Duration, map[string]any) {
		var reads counter
		elapsed := closedLoop(ctx, 2, d, func(ctx context.Context, worker int) {
			start := time.Now()
			if worker == 0 {
				done, err := p.tgt.ingest(ctx)
				rec.add(opIngest, done.Sub(start), err)
				return
			}
			op, done, err := read(ctx, reads.next())
			rec.add(op, done.Sub(start), err)
		})
		return elapsed, nil
	}
	p.config = map[string]any{
		"frame_shape": checkpointShape, "spec": checkpointSpec, "pool": poolSize,
		"json_body_bytes_approx": 714000, "cache_bytes": serveCacheMiB << 20,
		"load": "closed loop: 1 producer (one frame per durable ack) + 1 reader of the newest committed frame",
	}
	// Warm-up: commit a first batch so the reader has frames, then run
	// each read op once.
	for p.tgt.committed.Load() < 16 {
		if _, err := p.tgt.ingest(ctx); err != nil {
			p.close()
			return nil, fmt.Errorf("ingest warm-up: %w", err)
		}
	}
	for k := 1; k < 12; k += 2 {
		if _, _, err := read(ctx, k); err != nil {
			p.close()
			return nil, fmt.Errorf("ingest warm-up: %w", err)
		}
	}
	return p, nil
}

// coreOf returns the core.Compressor behind a goblaz codec.
func coreOf(coder codec.Coder) (*core.Compressor, error) {
	cc, ok := coder.(interface{ Compressor() *core.Compressor })
	if !ok {
		return nil, fmt.Errorf("codec %s exposes no core.Compressor", coder.Spec())
	}
	return cc.Compressor(), nil
}

// writeFrames writes frames (labels 0..n-1) as one store stream with the
// public store writer.
func writeFrames(dst io.Writer, coder codec.Coder, frames []*tensor.Tensor) error {
	w, err := store.NewWriter(dst, coder.Spec())
	if err != nil {
		return err
	}
	for i, t := range frames {
		c, err := coder.Compress(t)
		if err != nil {
			return err
		}
		payload, err := coder.Encode(c)
		if err != nil {
			return err
		}
		if err := w.Append(i, payload); err != nil {
			return err
		}
	}
	return w.Close()
}
