package api

import (
	"context"
	"fmt"
	"io"

	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tensor"
)

// source is the frame collection a Local serves. *store.Reader (one
// store file) and *shard.Dataset (a sharded dataset, positions global
// in manifest order) share this method set.
type source interface {
	Spec() string
	Specs() []string
	MixedCodec() bool
	FrameSpec(i int) string
	Len() int
	Info(i int) store.FrameInfo
	IndexOf(label int) (int, bool)
	Decompress(i int) (*tensor.Tensor, error)
	PayloadReader(i int) (*io.SectionReader, error)
	Close() error
}

// Local is the in-process Backend: a frame source for index and frame
// access plus the query runner for compressed-domain work — a
// query.Engine over a store file, or a sharded dataset's scatter-gather
// executor (see Sharded). Every error it returns is already classified
// (*Error), so the HTTP layer and CLI render it without re-inspecting
// causes; the original error stays reachable through Unwrap.
type Local struct {
	src    source
	run    func(context.Context, *query.Request) (*query.Result, error)
	shards int // StoreInfo.Shards: 0 for a single store
}

// NewLocal wraps an open store reader and its query engine. The caller
// keeps ownership of r (and closes it).
func NewLocal(r *store.Reader, eng *query.Engine) *Local {
	return &Local{src: r, run: eng.Run}
}

// OpenLocal opens the store at path with a fresh engine, memory-mapped
// where the platform supports it so payload serving is zero-copy (the
// portable fallback is plain positioned reads). Close releases the
// mapping or file handle.
func OpenLocal(path string, opts query.Options) (*Local, error) {
	r, err := store.OpenReaderMmap(path)
	if err != nil {
		return nil, FromError(err)
	}
	return NewLocal(r, query.New(r, opts)), nil
}

// Close releases the source's file handles.
func (l *Local) Close() error { return l.src.Close() }

func (l *Local) Spec(ctx context.Context) (StoreInfo, error) {
	if err := ctx.Err(); err != nil {
		return StoreInfo{}, FromError(err)
	}
	info := StoreInfo{Spec: l.src.Spec(), Frames: l.src.Len(), Shards: l.shards}
	if l.src.MixedCodec() {
		info.Specs = l.src.Specs()
	}
	return info, nil
}

func (l *Local) Frames(ctx context.Context) ([]FrameInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, FromError(err)
	}
	infos := make([]FrameInfo, l.src.Len())
	for i := range infos {
		infos[i] = l.frameInfoAt(i)
	}
	return infos, nil
}

// frameInfoAt converts the index entry at position i.
func (l *Local) frameInfoAt(i int) FrameInfo {
	e := l.src.Info(i)
	info := FrameInfo{
		Index:  i,
		Label:  e.Label,
		Offset: e.Offset,
		Length: e.Length,
		CRC32:  fmt.Sprintf("%08x", e.CRC32),
	}
	if spec := l.src.FrameSpec(i); spec != l.src.Spec() {
		info.Spec = spec
	}
	return info
}

// indexOf resolves a label to its position, after the context check
// every per-frame method starts with.
func (l *Local) indexOf(ctx context.Context, label int) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, FromError(err)
	}
	i, ok := l.src.IndexOf(label)
	if !ok {
		return 0, notFound(label)
	}
	return i, nil
}

// FrameInfo resolves one label in O(1) through the source's label
// index.
func (l *Local) FrameInfo(ctx context.Context, label int) (FrameInfo, error) {
	i, err := l.indexOf(ctx, label)
	if err != nil {
		return FrameInfo{}, err
	}
	return l.frameInfoAt(i), nil
}

func (l *Local) Frame(ctx context.Context, label int) (*Frame, error) {
	i, err := l.indexOf(ctx, label)
	if err != nil {
		return nil, err
	}
	t, err := l.src.Decompress(i)
	if err != nil {
		return nil, FromError(err)
	}
	return &Frame{Label: label, Shape: t.Shape(), Data: t.Data()}, nil
}

// PayloadReader is a positioned reader over the verified payload,
// zero-copy from the store's memory mapping when it has one.
func (l *Local) PayloadReader(ctx context.Context, label int) (io.ReadSeeker, error) {
	i, err := l.indexOf(ctx, label)
	if err != nil {
		return nil, err
	}
	rs, err := l.src.PayloadReader(i)
	if err != nil {
		return nil, FromError(err)
	}
	return rs, nil
}

func (l *Local) Stats(ctx context.Context, label int, aggs []string) (*query.FrameResult, error) {
	return FrameQuery(ctx, l, label, query.Request{Aggregates: aggs})
}

func (l *Local) Region(ctx context.Context, label int, offset, shape []int) (*query.FrameResult, error) {
	return FrameQuery(ctx, l, label, query.Request{Region: &query.RegionRequest{Offset: offset, Shape: shape}})
}

func (l *Local) Query(ctx context.Context, req *query.Request) (*query.Result, error) {
	res, err := l.run(ctx, req)
	if err != nil {
		return nil, FromError(err)
	}
	return res, nil
}
