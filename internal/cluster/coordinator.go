package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tensor"
)

// Options tunes a Coordinator beyond what the topology file carries —
// the knobs that belong to the process, not the cluster.
type Options struct {
	// HTTPClient overrides the transport under every endpoint's SDK
	// client and the health prober (e.g. a httptest server's client).
	HTTPClient *http.Client
	// ClientTimeout overrides the topology's per-attempt client timeout
	// when > 0.
	ClientTimeout time.Duration
	// DisableProbes turns the background health prober off; tests drive
	// the state machine deterministically with ProbeNow instead.
	DisableProbes bool
}

// ref locates a global frame position on its shard.
type ref struct {
	group int // index into Coordinator.groups
	local int // frame position within the shard
}

// Coordinator turns the shard servers of a Topology into one logical
// dataset: an api.Backend whose answers are bit-compatible with a
// Local over the concatenated data. At open it discovers every shard's
// frame inventory over the wire and freezes the global frame order
// (topology order, shard-local commit order within); queries compile
// against that view and run through the same query.Scatter
// internal/shard uses in process, with a part runner that calls the
// owning shard's replicas over HTTP.
type Coordinator struct {
	topo   *Topology
	ring   *Ring
	groups []*group

	spec   string
	specs  []string
	infos  []api.FrameInfo   // global commit order, Index remapped
	finfos []store.FrameInfo // same entries for query.Compile
	labels map[int]int       // label → global position
	refs   []ref
	sg     *query.Scatter

	probeHC  *http.Client
	stop     chan struct{}
	stopOnce sync.Once
	probeWG  sync.WaitGroup
}

// Open loads, validates, and connects the topology at path. The
// returned Coordinator has discovered every shard's inventory; Close
// stops its background prober.
func Open(path string, opts Options) (*Coordinator, error) {
	topo, err := LoadTopology(path)
	if err != nil {
		return nil, api.FromError(err)
	}
	return New(topo, opts)
}

// New connects an already-loaded topology. Discovery runs once, here:
// every shard's Spec and Frames are fetched (through replica failover,
// so one dead replica does not block startup), specs are checked for
// agreement, and the global frame order is frozen.
func New(topo *Topology, opts Options) (*Coordinator, error) {
	if err := topo.Validate(); err != nil {
		return nil, api.FromError(err)
	}
	timeout := time.Duration(topo.Client.Timeout)
	if opts.ClientTimeout > 0 {
		timeout = opts.ClientTimeout
	}
	c := &Coordinator{
		topo:    topo,
		ring:    topo.Ring(),
		labels:  map[int]int{},
		probeHC: opts.HTTPClient,
		stop:    make(chan struct{}),
	}
	if c.probeHC == nil {
		c.probeHC = http.DefaultClient
	}
	for _, sh := range topo.Shards {
		g := &group{
			name:      sh.Name,
			cooldown:  topo.Probe.cooldown(),
			downAfter: topo.Probe.downAfter(),
		}
		for _, rep := range sh.Replicas {
			ep, err := newEndpoint(rep, topo.Client, timeout, opts.HTTPClient)
			if err != nil {
				return nil, api.FromError(err)
			}
			g.endpoints = append(g.endpoints, ep)
		}
		c.groups = append(c.groups, g)
	}
	if err := c.discover(context.Background()); err != nil {
		return nil, err
	}
	c.sg = &query.Scatter{
		Span: "cluster.scatter", Owners: len(c.groups), Spec: c.spec, Specs: c.specs,
		Locate:  func(i int) (int, int) { return c.refs[i].group, c.refs[i].local },
		Seconds: clusterScatterSeconds,
		Part: func(ctx context.Context, p query.Part, sub *query.Request) (res *query.Result, err error) {
			err = c.groups[p.Owner].call(ctx, uint64(p.From), func(cl *api.Client) (err error) {
				res, err = cl.Query(ctx, sub)
				return err
			})
			return res, err
		},
	}
	if !opts.DisableProbes {
		c.probeWG.Add(1)
		go c.probeLoop(topo.Probe.interval())
	}
	return c, nil
}

// Close stops the background prober. It never closes in-flight calls;
// the per-endpoint SDK clients are stateless beyond pooled
// connections.
func (c *Coordinator) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	c.probeWG.Wait()
	return nil
}

// Topology exposes the loaded topology, for callers that need shard
// names or the dataset name.
func (c *Coordinator) Topology() *Topology { return c.topo }

// discover fetches every shard's inventory concurrently and freezes
// the global frame order.
func (c *Coordinator) discover(ctx context.Context) error {
	type inventory struct {
		info  api.StoreInfo
		index []api.FrameInfo
	}
	invs := make([]inventory, len(c.groups))
	errs := make([]error, len(c.groups))
	var wg sync.WaitGroup
	for s, g := range c.groups {
		wg.Add(1)
		go func(s int, g *group) {
			defer wg.Done()
			errs[s] = g.call(ctx, uint64(s), func(cl *api.Client) error {
				info, err := cl.Spec(ctx)
				if err != nil {
					return err
				}
				index, err := cl.Frames(ctx)
				if err != nil {
					return err
				}
				invs[s] = inventory{info: info, index: index}
				return nil
			})
		}(s, g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return api.FromError(err)
	}

	for s, inv := range invs {
		g := c.groups[s]
		if s == 0 {
			c.spec = inv.info.Spec
			c.specs = []string{inv.info.Spec}
		} else if inv.info.Spec != c.spec {
			return api.Errorf(api.CodeInternal, "shard %s default spec %q disagrees with %s's %q",
				g.name, inv.info.Spec, c.groups[0].name, c.spec)
		}
		for _, spec := range inv.info.Specs {
			if !containsString(c.specs, spec) {
				c.specs = append(c.specs, spec)
			}
		}
		for local, e := range inv.index {
			if prev, dup := c.labels[e.Label]; dup {
				return api.Errorf(api.CodeInternal, "label %d on shard %s duplicates global frame %d",
					e.Label, g.name, prev)
			}
			global := len(c.refs)
			c.labels[e.Label] = global
			c.refs = append(c.refs, ref{group: s, local: local})
			e.Index = global
			c.infos = append(c.infos, e)
			crc, _ := strconv.ParseUint(e.CRC32, 16, 32)
			c.finfos = append(c.finfos, store.FrameInfo{
				Label:  e.Label,
				Offset: e.Offset,
				Length: e.Length,
				CRC32:  uint32(crc),
			})
		}
	}
	if c.topo.Placement == PlacementHash {
		for global, r := range c.refs {
			if want := c.ring.Shard(c.infos[global].Label); want != r.group {
				return api.Errorf(api.CodeInternal,
					"label %d lives on shard %s but the ring places it on %s",
					c.infos[global].Label, c.groups[r.group].name, c.groups[want].name)
			}
		}
	}
	return nil
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// ---- query.Source over the discovered inventory ----------------------

// coordSource is the minimal query.Source query.Compile needs: frame
// count, labels, and label lookup. The data-access methods are never
// reached — compilation only resolves selections — and answer with
// errors rather than panics if a future engine change tries.
type coordSource struct{ c *Coordinator }

func (s coordSource) Spec() string                  { return s.c.spec }
func (s coordSource) Len() int                      { return len(s.c.refs) }
func (s coordSource) Info(i int) store.FrameInfo    { return s.c.finfos[i] }
func (s coordSource) IndexOf(label int) (int, bool) { i, ok := s.c.labels[label]; return i, ok }

func (s coordSource) Coder() (codec.Coder, error) {
	return nil, fmt.Errorf("cluster: coordinator has no local codec")
}
func (s coordSource) Frame(i int) (codec.Compressed, error) {
	return nil, fmt.Errorf("cluster: coordinator holds no local frames")
}
func (s coordSource) Decompress(i int) (*tensor.Tensor, error) {
	return nil, fmt.Errorf("cluster: coordinator holds no local frames")
}

// ---- Backend ---------------------------------------------------------

func (c *Coordinator) Spec(ctx context.Context) (api.StoreInfo, error) {
	if err := ctx.Err(); err != nil {
		return api.StoreInfo{}, api.FromError(err)
	}
	info := api.StoreInfo{Spec: c.spec, Frames: len(c.refs), Shards: len(c.groups)}
	if len(c.specs) > 1 {
		info.Specs = append([]string(nil), c.specs...)
	}
	return info, nil
}

func (c *Coordinator) Frames(ctx context.Context) ([]api.FrameInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, api.FromError(err)
	}
	return append([]api.FrameInfo(nil), c.infos...), nil
}

// indexOf resolves a label to its global position, after the context
// check every per-frame method starts with.
func (c *Coordinator) indexOf(ctx context.Context, label int) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, api.FromError(err)
	}
	i, ok := c.labels[label]
	if !ok {
		return 0, api.FromError(fmt.Errorf("no frame with label %d: %w", label, api.ErrNotFound))
	}
	return i, nil
}

// FrameInfo resolves one label from the discovered inventory, without
// a network hop.
func (c *Coordinator) FrameInfo(ctx context.Context, label int) (api.FrameInfo, error) {
	i, err := c.indexOf(ctx, label)
	if err != nil {
		return api.FrameInfo{}, err
	}
	return c.infos[i], nil
}

// ownerCall runs fn against the replicas of the shard owning label,
// with failover.
func (c *Coordinator) ownerCall(ctx context.Context, label int, fn func(*api.Client) error) error {
	i, err := c.indexOf(ctx, label)
	if err != nil {
		return err
	}
	return c.groups[c.refs[i].group].call(ctx, c.ring.affinity(label), fn)
}

func (c *Coordinator) Frame(ctx context.Context, label int) (out *api.Frame, err error) {
	err = c.ownerCall(ctx, label, func(cl *api.Client) (err error) {
		out, err = cl.Frame(ctx, label)
		return err
	})
	return out, err
}

// PayloadReader proxies the raw compressed bytes from the owning shard.
func (c *Coordinator) PayloadReader(ctx context.Context, label int) (out io.ReadSeeker, err error) {
	err = c.ownerCall(ctx, label, func(cl *api.Client) (err error) {
		out, err = cl.PayloadReader(ctx, label)
		return err
	})
	return out, err
}

func (c *Coordinator) Stats(ctx context.Context, label int, aggs []string) (*query.FrameResult, error) {
	return api.FrameQuery(ctx, c, label, query.Request{Aggregates: aggs})
}

func (c *Coordinator) Region(ctx context.Context, label int, offset, shape []int) (*query.FrameResult, error) {
	return api.FrameQuery(ctx, c, label, query.Request{Region: &query.RegionRequest{Offset: offset, Shape: shape}})
}

// Query answers req over the whole cluster with single-store
// semantics. Shard-local work scatters to the owning shards'
// endpoints; metric requests that couple frames across shards fall
// back to fetching the decoded frames over the wire and computing the
// metric with the engine's own definitions.
func (c *Coordinator) Query(ctx context.Context, req *query.Request) (*query.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, api.FromError(err)
	}
	if req == nil {
		return nil, api.FromError(fmt.Errorf("%w: nil request", query.ErrBadRequest))
	}
	// Compile against the global view: validation errors surface
	// identically to a single store's, whatever shard the frames live
	// on — and the resolved selection is what the scatter routes.
	p, err := query.Compile(coordSource{c}, req)
	if err != nil {
		return nil, api.FromError(err)
	}
	clusterQueries.Inc()
	if req.Metric != nil {
		return c.metricQuery(ctx, req, p)
	}
	return c.scatter(ctx, req, p.Frames(), p.Reduce())
}

// scatter fans req out to the shards owning frames and gathers the
// partial results in global order.
func (c *Coordinator) scatter(ctx context.Context, req *query.Request, frames []int, reduce []string) (*query.Result, error) {
	parts := c.sg.Route(frames)
	clusterParts.Add(uint64(len(parts)))
	res, err := c.sg.Run(ctx, req, parts, reduce)
	if err != nil {
		return nil, api.FromError(err)
	}
	return res, nil
}

// metricQuery answers a metric request. When every coupled frame — the
// selection plus any reference — lives on one shard, the whole request
// forwards there as a one-part scatter and runs on that shard's engine,
// compressed space and all. Otherwise no single shard can see both
// sides, so the coordinator fetches the decoded frames over the wire
// and computes the metric itself with the engine's decode-fallback
// definitions, while the request's other work (aggregates, regions,
// points, reductions) still scatters compressed.
func (c *Coordinator) metricQuery(ctx context.Context, req *query.Request, p *query.Plan) (*query.Result, error) {
	sel := p.Frames()
	m := *req.Metric
	owner := c.refs[sel[0]].group
	oneShard := true
	for _, i := range sel {
		if c.refs[i].group != owner {
			oneShard = false
			break
		}
	}
	refGlobal := -1
	if m.Against != nil {
		refGlobal = c.labels[*m.Against] // existence validated by Compile
		oneShard = oneShard && c.refs[refGlobal].group == owner
	}
	if oneShard {
		return c.scatter(ctx, req, sel, p.Reduce())
	}

	// The non-metric work of the request still merges exactly.
	stripped := *req
	stripped.Metric = nil
	var res *query.Result
	if len(stripped.Aggregates) > 0 || stripped.Region != nil || len(stripped.Point) > 0 || len(stripped.Reduce) > 0 {
		var err error
		if res, err = c.scatter(ctx, &stripped, sel, p.Reduce()); err != nil {
			return nil, err
		}
	} else {
		res = c.skeleton(sel)
	}
	res.ExecutedInCompressedSpace = false

	// Fetch every coupled frame decoded, concurrently; the reference
	// (when any) rides as the extra task.
	tasks := len(sel)
	if refGlobal >= 0 {
		tasks++
	}
	tens := make([]*tensor.Tensor, tasks)
	errs := make([]error, tasks)
	if err := tensor.ParallelForCoarseCtx(ctx, tasks, func(j int) {
		global := refGlobal
		if j < len(sel) {
			global = sel[j]
		}
		tens[j], errs[j] = c.fetchDecoded(ctx, global)
	}); err != nil {
		return nil, api.FromError(err)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, api.FromError(err)
	}

	if m.Against == nil {
		v, err := query.DecodedMetric(tens[0], tens[1], m.Kind, m.Peak)
		if err != nil {
			return nil, api.FromError(err)
		}
		res.Pair = &query.PairResult{
			A: res.Frames[0].Label, B: res.Frames[1].Label,
			Kind: m.Kind, Value: query.Float(v),
		}
		res.Frames[0].ExecutedInCompressedSpace = false
		res.Frames[1].ExecutedInCompressedSpace = false
		return res, nil
	}
	refT := tens[len(sel)]
	for j := range sel {
		v, err := query.DecodedMetric(tens[j], refT, m.Kind, m.Peak)
		if err != nil {
			return nil, api.FromError(err)
		}
		fv := query.Float(v)
		res.Frames[j].Metric = &fv
		res.Frames[j].ExecutedInCompressedSpace = false
	}
	return res, nil
}

// skeleton builds the per-frame result list a metric-only request
// carries: one entry per selected frame in global order, to hang
// metric values off.
func (c *Coordinator) skeleton(sel []int) *query.Result {
	out := &query.Result{Spec: c.spec}
	if len(c.specs) > 1 {
		out.Specs = append([]string(nil), c.specs...)
	}
	for _, i := range sel {
		info := c.infos[i]
		out.Frames = append(out.Frames, query.FrameResult{Index: i, Label: info.Label, Spec: info.Spec})
	}
	return out
}

// fetchDecoded pulls one frame fully decompressed from its owning
// shard, with replica failover.
func (c *Coordinator) fetchDecoded(ctx context.Context, global int) (*tensor.Tensor, error) {
	f, err := c.Frame(ctx, c.infos[global].Label)
	if err != nil {
		return nil, err
	}
	clusterRemoteFrames.Inc()
	return tensor.FromSlice(f.Data, f.Shape...), nil
}

// ---- health probes ---------------------------------------------------

// probeLoop probes every endpoint on the topology's interval until
// Close.
func (c *Coordinator) probeLoop(interval time.Duration) {
	defer c.probeWG.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.ProbeNow()
		}
	}
}

// ProbeNow probes every endpoint once, concurrently, and applies the
// outcomes to the state machine. The background prober calls it on its
// interval; tests call it directly for deterministic transitions.
func (c *Coordinator) ProbeNow() {
	var wg sync.WaitGroup
	for _, g := range c.groups {
		for _, ep := range g.endpoints {
			wg.Add(1)
			go func(g *group, ep *endpoint) {
				defer wg.Done()
				ep.beginProbe()
				if c.probeOnce(ep) {
					clusterProbes.With("ok").Inc()
					ep.markSuccess()
				} else {
					clusterProbes.With("fail").Inc()
					ep.markFailure(g.cooldown, g.downAfter)
				}
			}(g, ep)
		}
	}
	wg.Wait()
}

// probeOnce checks one endpoint's health: GET /readyz at the server
// root, falling back to /healthz for servers that predate the
// readiness route. Ready is 200; anything else — including a warming
// server's 503 — is a failure.
func (c *Coordinator) probeOnce(ep *endpoint) bool {
	base := ep.probeBase()
	status, err := c.probeGet(base + "/readyz")
	if err == nil && status == http.StatusNotFound {
		status, err = c.probeGet(base + "/healthz")
	}
	return err == nil && status == http.StatusOK
}

func (c *Coordinator) probeGet(url string) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.probeHC.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}
