package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/tensor"
)

// tol is the repository's differential convention: a compressed-space
// answer may differ from the decode-then-compute answer by at most 1e-9,
// relative to the larger of 1 and the reference.
const tol = 1e-9

func near(a, b float64) bool { return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b)) }

// frameTruth is what every answer about one frame is checked against:
// the raw float64 data, the decode-path answers of an in-process
// ForceDecode engine, and the frame's reconstruction error bound.
type frameTruth struct {
	raw   []float64
	shape []int
	scale float64 // max − min of the raw data; normalizes value errors
	// bound is Compressor.ErrorBoundsFor's per-block L2 bound, which
	// also bounds every element's reconstruction error.
	bound float64
	sum   float64            // decode-path checksum of the whole frame
	stats map[string]float64 // decode-path aggregates
	exact map[string]float64 // aggregates of the raw data
	// The region box this frame's region reads use, with its
	// decode-path values.
	regOff, regShape []int
	region           []float64
}

type pairTruth struct{ dec, exact float64 }

type windowTruth struct {
	dec, exact map[string]float64
	scale      float64
}

// oracle holds the truths of one workload and tallies how answers
// measured up. Frames are addressed by key: the frame label, except on
// the ingest workload, whose labels cycle through a pool of checkpoints.
type oracle struct {
	frames  map[int]*frameTruth
	pairs   map[[2]int]*pairTruth // (reference key, frame key)
	windows map[int]*windowTruth  // by window-start key
	key     func(label int) int   // label → key
	wkey    func(start int) int   // window start position → key
	aggs    []string
	reduce  []string
	window  int

	mu         sync.Mutex
	maxRelErr  float64
	mismatches int
}

// oracleError marks an answer that failed the oracle.
type oracleError struct{ msg string }

func (e *oracleError) Error() string { return "oracle: " + e.msg }

func mismatch(format string, args ...any) error {
	return &oracleError{fmt.Sprintf(format, args...)}
}

// oracleSpec describes what buildOracle computes.
type oracleSpec struct {
	src          query.Source           // the packed frames
	raw          map[int]*tensor.Tensor // key → raw frame
	key          func(label int) int    // label → key; nil means the label is the key
	wkey         func(start int) int    // window start → key; nil means the start is the key
	aggs         []string
	reduce       []string
	window       int
	windowStarts []int    // window start positions to precompute
	pairs        [][2]int // (reference key, frame key) pairs
	regShape     []int
	rng          *rand.Rand // picks each frame's region offset
}

// buildOracle computes every truth spec asks for, with the decode path of
// an in-process engine (query.Options{ForceDecode: true}) and exact
// arithmetic on the raw data.
func buildOracle(ctx context.Context, spec oracleSpec) (*oracle, error) {
	o := &oracle{
		frames: map[int]*frameTruth{}, pairs: map[[2]int]*pairTruth{}, windows: map[int]*windowTruth{},
		key: spec.key, wkey: spec.wkey, aggs: spec.aggs, reduce: spec.reduce, window: spec.window,
	}
	if o.key == nil {
		o.key = func(l int) int { return l }
	}
	if o.wkey == nil {
		o.wkey = func(s int) int { return s }
	}
	eng := query.New(spec.src, query.Options{ForceDecode: true, CacheBytes: 1 << 30})
	coder, err := spec.src.Coder()
	if err != nil {
		return nil, err
	}
	comp, err := coreOf(coder)
	if err != nil {
		return nil, err
	}

	keys := sortedKeys(spec.raw)
	for _, k := range keys {
		t := spec.raw[k]
		off := make([]int, len(spec.regShape))
		for d, e := range spec.regShape {
			off[d] = spec.rng.Intn(t.Shape()[d] - e + 1)
		}
		o.frames[k] = &frameTruth{raw: t.Data(), shape: t.Shape(), regOff: off, regShape: spec.regShape}
	}
	err = parallel(len(keys), func(j int) error {
		k := keys[j]
		ft := o.frames[k]
		i, ok := spec.src.IndexOf(k)
		if !ok {
			return fmt.Errorf("oracle: label %d not in source", k)
		}
		c, err := spec.src.Frame(i)
		if err != nil {
			return err
		}
		ca, ok := c.(*core.CompressedArray)
		if !ok {
			return fmt.Errorf("oracle: frame %d is %T, not a core.CompressedArray", k, c)
		}
		b, err := comp.ErrorBoundsFor(ca)
		if err != nil {
			return err
		}
		ft.bound = b.BlockL2
		sel := query.Selector{Labels: strconv.Itoa(k)}
		res, err := eng.Run(ctx, &query.Request{Select: sel, Aggregates: spec.aggs,
			Region: &query.RegionRequest{Offset: make([]int, len(ft.shape)), Shape: ft.shape}})
		if err != nil {
			return err
		}
		fr := res.Frames[0]
		ft.stats = floats(fr.Aggregates)
		for _, v := range fr.Region.Values {
			ft.sum += v
		}
		res, err = eng.Run(ctx, &query.Request{Select: sel,
			Region: &query.RegionRequest{Offset: ft.regOff, Shape: ft.regShape}})
		if err != nil {
			return err
		}
		ft.region = res.Frames[0].Region.Values
		ft.exact = exactAggs(ft.raw)
		lo, hi := minMax(ft.raw)
		ft.scale = hi - lo
		return nil
	})
	if err != nil {
		return nil, err
	}

	pairs := make([]*pairTruth, len(spec.pairs))
	err = parallel(len(spec.pairs), func(j int) error {
		p := spec.pairs[j]
		ref := p[0]
		res, err := eng.Run(ctx, &query.Request{Select: query.Selector{Labels: strconv.Itoa(p[1])},
			Metric: &query.MetricRequest{Kind: query.MetricCosine, Against: &ref}})
		if err != nil {
			return err
		}
		pairs[j] = &pairTruth{dec: float64(*res.Frames[0].Metric),
			exact: cosine(spec.raw[p[0]].Data(), spec.raw[p[1]].Data())}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for j, p := range spec.pairs {
		o.pairs[p] = pairs[j]
	}

	for _, s := range spec.windowStarts {
		from, to := s, s+spec.window
		res, err := eng.Run(ctx, &query.Request{Select: query.Selector{From: &from, To: &to}, Reduce: spec.reduce})
		if err != nil {
			return nil, err
		}
		var vals [][]float64
		for i := from; i < to; i++ {
			vals = append(vals, spec.raw[o.key(spec.src.Info(i).Label)].Data())
		}
		exact, scale := exactReduce(vals)
		o.windows[o.wkey(s)] = &windowTruth{dec: floats(res.Reduced.Values), exact: exact, scale: scale}
	}
	return o, nil
}

// parallel runs fn(0..n-1) on two goroutines and returns the first error.
func parallel(n int, fn func(i int) error) error {
	const workers = 2
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func sortedKeys(m map[int]*tensor.Tensor) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func floats(m map[string]query.Float) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = float64(v)
	}
	return out
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// exactAggs computes every aggregate kind on raw data, two-pass for the
// variance.
func exactAggs(v []float64) map[string]float64 {
	var sum, sq float64
	for _, x := range v {
		sum += x
		sq += x * x
	}
	n := float64(len(v))
	mean := sum / n
	var dev float64
	for _, x := range v {
		dev += (x - mean) * (x - mean)
	}
	lo, hi := minMax(v)
	return map[string]float64{
		query.AggMean: mean, query.AggVariance: dev / n, query.AggStdDev: math.Sqrt(dev / n),
		query.AggMin: lo, query.AggMax: hi, query.AggL2Norm: math.Sqrt(sq),
	}
}

// exactReduce computes dataset-level aggregates over several raw frames.
func exactReduce(frames [][]float64) (map[string]float64, float64) {
	var all []float64
	for _, f := range frames {
		all = append(all, f...)
	}
	lo, hi := minMax(all)
	return exactAggs(all), hi - lo
}

func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	return dot / math.Sqrt(na*nb)
}

// relErr is the deviation of an aggregate from its exact value: value
// kinds (mean, min, max) relative to the data's range, the others
// relative to the exact value.
func relErr(kind string, got, exact, scale float64) float64 {
	switch kind {
	case query.AggMean, query.AggMin, query.AggMax:
		return math.Abs(got-exact) / scale
	}
	return math.Abs(got-exact) / math.Abs(exact)
}

// observe folds one answer's deviation from the raw data into the run's
// worst relative error, and a failed check into the mismatch count.
func (o *oracle) observe(rel float64, err error) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if rel > o.maxRelErr {
		o.maxRelErr = rel
	}
	var oe *oracleError
	if errors.As(err, &oe) {
		o.mismatches++
	}
	return err
}

func (o *oracle) truth(label int) (*frameTruth, error) {
	ft, ok := o.frames[o.key(label)]
	if !ok {
		return nil, mismatch("no truth for label %d", label)
	}
	return ft, nil
}

// checkValues checks reconstructed values against the raw data (within
// the frame's error bound) and returns the normalized worst deviation.
func checkValues(got, raw []float64, bound, scale float64) (float64, error) {
	if len(got) != len(raw) {
		return 0, mismatch("%d values, want %d", len(got), len(raw))
	}
	var worst float64
	for i, v := range got {
		worst = math.Max(worst, math.Abs(v-raw[i]))
	}
	if worst > bound*(1+tol) {
		return worst / scale, mismatch("reconstruction error %g exceeds the error bound %g", worst, bound)
	}
	return worst / scale, nil
}

func (o *oracle) checkFrame(label int, f *api.Frame) error {
	ft, err := o.truth(label)
	if err != nil {
		return o.observe(0, err)
	}
	if !tensor.EqualShape(f.Shape, ft.shape) {
		return o.observe(0, mismatch("frame %d shape %v, want %v", label, f.Shape, ft.shape))
	}
	rel, err := checkValues(f.Data, ft.raw, ft.bound, ft.scale)
	if err != nil {
		return o.observe(rel, fmt.Errorf("frame %d: %w", label, err))
	}
	var sum float64
	for _, v := range f.Data {
		sum += v
	}
	if !near(sum, ft.sum) {
		return o.observe(rel, mismatch("frame %d checksum %.17g, decode path %.17g", label, sum, ft.sum))
	}
	return o.observe(rel, nil)
}

func (o *oracle) checkRegion(label int, fr *query.FrameResult) error {
	ft, err := o.truth(label)
	if err != nil {
		return o.observe(0, err)
	}
	if fr.Region == nil {
		return o.observe(0, mismatch("frame %d: no region in answer", label))
	}
	raw := crop(ft.raw, ft.shape, ft.regOff, ft.regShape)
	rel, err := checkValues(fr.Region.Values, raw, ft.bound, ft.scale)
	if err != nil {
		return o.observe(rel, fmt.Errorf("frame %d region: %w", label, err))
	}
	for i, v := range fr.Region.Values {
		if !near(v, ft.region[i]) {
			return o.observe(rel, mismatch("frame %d region value %d = %.17g, decode path %.17g", label, i, v, ft.region[i]))
		}
	}
	return o.observe(rel, nil)
}

func (o *oracle) checkStats(label int, fr *query.FrameResult) error {
	ft, err := o.truth(label)
	if err != nil {
		return o.observe(0, err)
	}
	var worst float64
	for _, kind := range o.aggs {
		v, ok := fr.Aggregates[kind]
		if !ok {
			return o.observe(worst, mismatch("frame %d: no %s in answer", label, kind))
		}
		worst = math.Max(worst, relErr(kind, float64(v), ft.exact[kind], ft.scale))
		if !near(float64(v), ft.stats[kind]) {
			return o.observe(worst, mismatch("frame %d %s = %.17g, decode path %.17g", label, kind, float64(v), ft.stats[kind]))
		}
	}
	return o.observe(worst, nil)
}

func (o *oracle) checkCompare(ref, label int, fr *query.FrameResult) error {
	pt, ok := o.pairs[[2]int{o.key(ref), o.key(label)}]
	if !ok {
		return o.observe(0, mismatch("no truth for pair (%d, %d)", ref, label))
	}
	if fr.Metric == nil {
		return o.observe(0, mismatch("pair (%d, %d): no metric in answer", ref, label))
	}
	v := float64(*fr.Metric)
	rel := math.Abs(v - pt.exact)
	if !near(v, pt.dec) {
		return o.observe(rel, mismatch("cosine(%d, %d) = %.17g, decode path %.17g", ref, label, v, pt.dec))
	}
	return o.observe(rel, nil)
}

func (o *oracle) checkReduce(from int, res *query.Result) error {
	wt, ok := o.windows[o.wkey(from)]
	if !ok {
		return o.observe(0, mismatch("no truth for the window at %d", from))
	}
	if res.Reduced == nil {
		return o.observe(0, mismatch("window at %d: no reduction in answer", from))
	}
	var worst float64
	for _, kind := range o.reduce {
		v := float64(res.Reduced.Values[kind])
		worst = math.Max(worst, relErr(kind, v, wt.exact[kind], wt.scale))
		if !near(v, wt.dec[kind]) {
			return o.observe(worst, mismatch("window at %d %s = %.17g, decode path %.17g", from, kind, v, wt.dec[kind]))
		}
	}
	return o.observe(worst, nil)
}

// crop extracts the row-major box (off, box) from data of the given shape.
func crop(data []float64, shape, off, box []int) []float64 {
	t := tensor.FromSlice(data, shape...)
	out := make([]float64, 0, tensor.Prod(box))
	idx := make([]int, len(box))
	src := make([]int, len(box))
	for {
		for d := range idx {
			src[d] = off[d] + idx[d]
		}
		out = append(out, t.At(src...))
		if !tensor.NextIndex(idx, box) {
			return out
		}
	}
}
