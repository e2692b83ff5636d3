package main

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/query"
	"repro/internal/tensor"
)

// target issues the benchmark's ops through the public api.Client SDK
// and checks every answer against the oracle. Each op returns the moment
// its client call completed, so callers time the call alone (or, in an
// open loop, from its due time); the oracle check runs after it.
type target struct {
	read  *api.Client // the workload's dataset
	write *api.Client // the ingest mount
	or    *oracle
	pool  []*tensor.Tensor // checkpoints the ingest op replays under fresh labels

	nextLabel atomic.Int64
	committed atomic.Int64 // committed frame count of the ingest mount, as last acked

	tr   *tracer
	pass *spanRef // parent of every client span
}

func newClient(url string) (*api.Client, error) {
	// No retries: a shed or failed request counts as failed rather than
	// being retried out of sight.
	return api.NewClient(url, api.ClientOptions{Retries: -1})
}

// call times one client call and records its span.
func (t *target) call(name string, fn func() error) (time.Time, error) {
	start := time.Now()
	err := fn()
	done := time.Now()
	t.tr.record("client."+name, t.pass, start, done)
	return done, err
}

func (t *target) frame(ctx context.Context, label int) (time.Time, error) {
	var f *api.Frame
	done, err := t.call(opFrame, func() (err error) { f, err = t.read.Frame(ctx, label); return err })
	if err != nil {
		return done, err
	}
	return done, t.or.checkFrame(label, f)
}

func (t *target) region(ctx context.Context, label int) (time.Time, error) {
	ft, err := t.or.truth(label)
	if err != nil {
		return time.Now(), err
	}
	var fr *query.FrameResult
	done, err := t.call(opRegion, func() (err error) {
		fr, err = t.read.Region(ctx, label, ft.regOff, ft.regShape)
		return err
	})
	if err != nil {
		return done, err
	}
	return done, t.or.checkRegion(label, fr)
}

func (t *target) stats(ctx context.Context, label int) (time.Time, error) {
	var fr *query.FrameResult
	done, err := t.call(opStats, func() (err error) { fr, err = t.read.Stats(ctx, label, t.or.aggs); return err })
	if err != nil {
		return done, err
	}
	return done, t.or.checkStats(label, fr)
}

// compare asks for the cosine similarity of frame label against ref.
func (t *target) compare(ctx context.Context, ref, label int) (time.Time, error) {
	var res *query.Result
	done, err := t.call(opCompare, func() (err error) {
		res, err = t.read.Query(ctx, &query.Request{
			Select: query.Selector{Labels: strconv.Itoa(label)},
			Metric: &query.MetricRequest{Kind: query.MetricCosine, Against: &ref},
		})
		return err
	})
	if err != nil {
		return done, err
	}
	if len(res.Frames) != 1 {
		return done, t.or.observe(0, mismatch("compare answered %d frames, want 1", len(res.Frames)))
	}
	return done, t.or.checkCompare(ref, label, &res.Frames[0])
}

// reduce asks for the oracle's reduce aggregates over the window of
// positions [from, from+window).
func (t *target) reduce(ctx context.Context, from int) (time.Time, error) {
	to := from + t.or.window
	var res *query.Result
	done, err := t.call(opReduce, func() (err error) {
		res, err = t.read.Query(ctx, &query.Request{Select: query.Selector{From: &from, To: &to}, Reduce: t.or.reduce})
		return err
	})
	if err != nil {
		return done, err
	}
	return done, t.or.checkReduce(from, res)
}

// ingest sends the next checkpoint of the pool under a fresh label and
// waits for the durable ack.
func (t *target) ingest(ctx context.Context) (time.Time, error) {
	label := int(t.nextLabel.Add(1) - 1)
	ck := t.pool[label%len(t.pool)]
	var res *api.IngestResult
	done, err := t.call(opIngest, func() (err error) {
		res, err = t.write.Ingest(ctx, []api.IngestFrame{{Label: label, Shape: ck.Shape(), Data: ck.Data()}})
		return err
	})
	if err != nil {
		return done, err
	}
	if res.Accepted != 1 {
		return done, fmt.Errorf("ingest of label %d accepted %d frames", label, res.Accepted)
	}
	for {
		old := t.committed.Load()
		if int64(res.Frames) <= old || t.committed.CompareAndSwap(old, int64(res.Frames)) {
			break
		}
	}
	return done, nil
}
