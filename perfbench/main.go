// Command perfbench is the repository benchmark: it runs one workload
// (scan, analytics or ingest) against real `goblaz serve` processes
// through the api.Client SDK, checks every answer against an oracle, and
// prints one JSON result line. With -trace 1 it also walks the per-layer
// ladder and reports the per-layer rows instead of the end-to-end ones.
// See README.md for the workloads and the recipe.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The lists mirror
// BENCHMARK.json (a test keeps them in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"rss_mb", "MiB"}, {"ratio", "x"}, {"max_rel_err", "1"},
	{"frame_p50_ms", "ms"}, {"region_p50_ms", "ms"}, {"stats_p50_ms", "ms"},
	{"reduce_p50_ms", "ms"}, {"compare_p50_ms", "ms"}, {"ingest_p50_ms", "ms"},
}

var perLayer = []metricDef{
	{"core.decode_ms", "ms"}, {"core.decompress_ms", "ms"}, {"core.region_ms", "ms"}, {"core.ops_us", "us"},
	{"core.compress_ms", "ms"}, {"core.encode_ms", "ms"},
	{"codec.decode_ms", "ms"}, {"codec.decompress_ms", "ms"},
	{"store.payload_us", "us"}, {"store.decompress_ms", "ms"},
	{"query.stats_hot_ms", "ms"}, {"query.stats_cold_ms", "ms"}, {"query.region_ms", "ms"},
	{"query.reduce_ms", "ms"}, {"query.compare_ms", "ms"},
	{"shard.region_ms", "ms"}, {"shard.stats_cold_ms", "ms"},
	{"api.frame_ms", "ms"}, {"api.region_ms", "ms"},
	{"httpapi.frame_ms", "ms"}, {"httpapi.frame_server_ms", "ms"}, {"httpapi.region_ms", "ms"},
	{"httpapi.stats_hot_ms", "ms"}, {"httpapi.ingest_ms", "ms"},
	{"cluster.stats_hot_ms", "ms"}, {"cluster.reduce_ms", "ms"}, {"cluster.compare_ms", "ms"},
	{"cluster.compare_cross_ms", "ms"},
	{"ingest.append_ms", "ms"}, {"ingest.commit_ms", "ms"}, {"ingest.compact_ms", "ms"},
	{"self.core_ms", "ms"}, {"self.codec_ms", "ms"}, {"self.store_ms", "ms"}, {"self.api_ms", "ms"},
	{"self.httpapi_server_ms", "ms"}, {"self.httpapi_client_ms", "ms"},
	{"query.cache_hit_ratio", "1"}, {"query.frames_decoded_per_op", "count"},
	{"query.frames_compressed_per_op", "count"},
	{"codec.decode_bytes_per_op", "B"}, {"store.payload_bytes_per_op", "B"},
	{"limit.admitted_per_op", "count"}, {"limit.shed", "count"},
	{"cluster.parts_per_op", "count"}, {"cluster.remote_frames_per_op", "count"},
	{"ingest.wal_fsync_p99_ms", "ms"}, {"ingest.commits", "count"}, {"ingest.compactions", "count"},
	{"ingest.write_amp", "x"},
	{"trace.overhead_pct", "%"}, {"trace.spans", "count"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string
	workdir  string
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: scan|analytics|ingest")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&o.seconds, "seconds", 25, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer rows")
	fs.StringVar(&o.bin, "goblaz", "", "goblaz binary (built by run.sh)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory for stores, logs and results")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = trace == 1
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := runBenchmark(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func runBenchmark(ctx context.Context, o options) (_ *result, err error) {
	w, ok := lookupWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have scan|analytics|ingest)", o.workload)
	}
	if o.bin == "" {
		return nil, errors.New("-goblaz is required (run through run.sh)")
	}
	if o.seconds < 1 {
		return nil, errors.New("-seconds must be at least 1")
	}
	runDir, err := filepath.Abs(filepath.Join(o.workdir, fmt.Sprintf("run-%s-%d-%d", w.name, o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	// A failed run keeps its directory (server logs included) for
	// diagnosis; a successful one leaves nothing behind.
	defer func() {
		if err == nil {
			os.RemoveAll(runDir)
		}
	}()

	// A traced run walks the ladder first, while the process holds no
	// corpus, so the in-process steps do not pay for marking a large heap.
	var tr *tracer
	var rows map[string]float64
	if o.trace {
		tr = newTracer()
		if rows, err = runLadder(ctx, setupEnv{bin: o.bin, dir: filepath.Join(runDir, "ladder"), seed: o.seed}, tr); err != nil {
			return nil, err
		}
	}

	// Set up three times and report the median, so work moved into
	// set-up shows; the last set-up is the one measured. A traced run
	// reports no setup_s and sets up once.
	setups := 3
	if o.trace {
		setups = 1
	}
	var setupTimes []float64
	var p *prepared
	for i := 0; i < setups; i++ {
		env := setupEnv{bin: o.bin, dir: filepath.Join(runDir, fmt.Sprintf("setup%d", i)), seed: o.seed}
		if err := os.MkdirAll(env.dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		q, err := w.setup(ctx, env)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < setups-1 {
			q.close()
			os.RemoveAll(env.dir)
			continue
		}
		p = q
	}
	defer p.close()

	if o.trace {
		p.tgt.tr = tr
		p.tgt.pass = tr.begin("workload."+w.name, nil)
	}
	before, err := p.fleet.snapshots()
	if err != nil {
		return nil, err
	}
	store0 := p.storeBytes()
	rec := newRecorder()
	elapsed, extra := p.drive(ctx, time.Duration(o.seconds)*time.Second, rec)
	p.tgt.pass.end()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := p.fleet.snapshots()
	if err != nil {
		return nil, err
	}
	rss, err := p.fleet.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	ratio, err := p.ratio()
	if err != nil {
		return nil, err
	}
	good := rec.attempted - rec.failed
	frameBytes := float64(8 * checkpointShape[0] * checkpointShape[1])
	counters := counterRows(before, after, float64(good), frameBytes, float64(p.storeBytes()-store0))

	// The workload must still measure what it claims to.
	if w.name == "scan" && counters["query.cache_hit_ratio"] > 0.05 {
		return nil, fmt.Errorf("scan: cache hit ratio %.3f — the cyclic walk no longer defeats the LRU", counters["query.cache_hit_ratio"])
	}
	if w.name == "ingest" && (counters["ingest.commits"] == 0 || counters["ingest.compactions"] == 0) {
		return nil, fmt.Errorf("ingest: %g commits and %g compactions in the run; it must see both",
			counters["ingest.commits"], counters["ingest.compactions"])
	}

	e2e := map[string]float64{
		"setup_s": median(setupTimes), "ops_per_s": float64(good) / elapsed.Seconds(),
		"rss_mb": rss, "ratio": ratio, "max_rel_err": p.tgt.or.maxRelErr,
	}
	samples := map[string]any{}
	for _, op := range allOps {
		s := rec.sorted(op)
		e2e[op+"_p50_ms"] = ms(percentile(s, 0.5))
		// The tail is reported, not gated: see README.md.
		tail := highestTail(len(s))
		var deciles []float64
		for q := 1; q <= 9; q++ {
			deciles = append(deciles, ms(percentile(s, float64(q)/10)))
		}
		row := map[string]any{"n": len(s), "deciles_ms": deciles}
		if tail > 0 {
			row["tail_p"], row["tail_ms"] = tail, ms(percentile(s, tail))
		}
		samples[op] = row
	}

	res := &result{Correct: p.tgt.or.mismatches == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: map[string]metric{}}
	report := map[string]any{
		"workload": w.name, "why": w.why, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"environment": environment(), "config": p.config, "ingest_policy": ingestPolicy,
		"setup_s_each": setupTimes, "elapsed_s": elapsed.Seconds(), "samples": samples,
		"counters": counters, "end_to_end": e2e, "errors": rec.errs, "oracle_mismatches": p.tgt.or.mismatches,
	}
	for k, v := range extra {
		report[k] = v
	}

	if !o.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
	} else {
		overhead, err := tracingOverhead(ctx, p, tr)
		if err != nil {
			return nil, err
		}
		rows["trace.overhead_pct"] = overhead
		rows["trace.spans"] = float64(tr.count())
		for k, v := range counters {
			rows[k] = v
		}
		for _, m := range perLayer {
			v, ok := rows[m.name]
			if !ok {
				return nil, fmt.Errorf("per-layer row %s was not measured", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		report["per_layer"] = rows
		tracePath := filepath.Join(o.workdir, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
		if err := tr.write(tracePath); err != nil {
			return nil, err
		}
		report["trace_file"] = tracePath
	}
	printReport(report, res)
	return res, nil
}

// tracingOverhead alternates untraced and traced passes of the same op
// schedule on the prepared workload and returns how much longer, in
// percent, the traced passes took: what recording spans costs.
func tracingOverhead(ctx context.Context, p *prepared, tr *tracer) (float64, error) {
	const passLen = 24
	var plain, traced time.Duration
	for i := 0; i < 4; i++ {
		p.tgt.tr = nil
		if i%2 == 1 {
			p.tgt.tr = tr
			p.tgt.pass = tr.begin("pass", nil)
		}
		start := time.Now()
		for k := 0; k < passLen; k++ {
			if _, _, err := p.step(ctx, (i+1)*passLen+k); err != nil {
				return 0, fmt.Errorf("traced pass: %w", err)
			}
		}
		if i%2 == 1 {
			traced += time.Since(start)
			p.tgt.pass.end()
		} else {
			plain += time.Since(start)
		}
	}
	return 100 * (traced.Seconds() - plain.Seconds()) / plain.Seconds(), nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// printReport writes the human-readable table to stderr and the full
// report as one JSON line to stdout, ahead of the result line.
func printReport(report map[string]any, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "%-34s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	b, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report:", err)
		return
	}
	fmt.Println(string(b))
}
