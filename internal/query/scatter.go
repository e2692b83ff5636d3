package query

import (
	"context"
	"errors"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// Part is one owner's contiguous share of a routed selection: the
// owner-local index range its sub-query scans.
type Part struct {
	Owner    int // shard (dataset) or shard group (cluster) index
	From, To int // owner-local positions, half-open
	Base     int // global position of the owner's first frame
}

// Scatter is the scatter-gather executor of a collection whose frames
// are partitioned among owners covering contiguous global ranges — the
// shards of an in-process dataset, the shard servers of a cluster. Only
// the part runner differs between the two; routing, scoping, the
// concurrent fan-out and the exact merge live here once.
type Scatter struct {
	// Span names the trace span one Run opens.
	Span string
	// Owners is the owner count, reported in the span detail.
	Owners int
	// Spec and Specs stamp the gathered result (Specs only when more
	// than one).
	Spec  string
	Specs []string
	// Locate maps a global frame position to its owner and local
	// position.
	Locate func(global int) (owner, local int)
	// Part runs one scoped sub-request on its owner.
	Part func(ctx context.Context, p Part, sub *Request) (*Result, error)
	// Seconds observes each part's latency.
	Seconds *obs.Histogram
}

// Route splits resolved global positions (ascending) into parts.
// Owners cover contiguous global ranges, so each owner with at least
// one match yields exactly one part spanning its first to last matched
// local position; owners the selection cannot touch are skipped
// without a call.
func (s *Scatter) Route(frames []int) []Part {
	var parts []Part
	for _, g := range frames {
		owner, local := s.Locate(g)
		if n := len(parts); n > 0 && parts[n-1].Owner == owner {
			parts[n-1].To = local + 1
			continue
		}
		parts = append(parts, Part{Owner: owner, From: local, To: local + 1, Base: g - local})
	}
	return parts
}

// scope translates req to one part: same work, selection narrowed to
// the owner's local index range. The window's endpoints are themselves
// selected frames, so the label glob plus the local range resolves to
// exactly the part's frames on the owner.
func scope(req *Request, p Part) *Request {
	sub := *req
	from, to := p.From, p.To
	sub.Select = Selector{Labels: req.Select.Labels, From: &from, To: &to}
	return &sub
}

// Run sends req to every part concurrently on the shared worker pool
// and gathers the answers in global order: frame results concatenate
// with indices remapped to global positions, the compressed-space flag
// ANDs, reduction partials fold exactly through Moments into the
// plan's normalized kind list, and a single part's pairwise metric
// passes through.
func (s *Scatter) Run(ctx context.Context, req *Request, parts []Part, reduce []string) (*Result, error) {
	ctx, span := obs.DefaultTracer.Start(ctx, s.Span)
	span.SetDetail("parts=%d/%d", len(parts), s.Owners)
	defer span.End()

	results := make([]*Result, len(parts))
	errs := make([]error, len(parts))
	if err := tensor.ParallelForCoarseCtx(ctx, len(parts), func(j int) {
		start := time.Now()
		results[j], errs[j] = s.Part(ctx, parts[j], scope(req, parts[j]))
		s.Seconds.ObserveDuration(time.Since(start))
	}); err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	out := &Result{Spec: s.Spec, ExecutedInCompressedSpace: true}
	if len(s.Specs) > 1 {
		out.Specs = append([]string(nil), s.Specs...)
	}
	total := EmptyMoments()
	for j, r := range results {
		for _, fr := range r.Frames {
			fr.Index += parts[j].Base
			out.Frames = append(out.Frames, fr)
		}
		out.ExecutedInCompressedSpace = out.ExecutedInCompressedSpace && r.ExecutedInCompressedSpace
		if r.Reduced != nil {
			total.Merge(r.Reduced.Moments)
		}
		if r.Pair != nil {
			out.Pair = r.Pair
		}
	}
	if len(reduce) > 0 {
		reduced, err := total.Reduced(reduce)
		if err != nil {
			return nil, err
		}
		out.Reduced = reduced
	}
	return out, nil
}
