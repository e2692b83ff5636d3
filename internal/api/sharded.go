package api

import (
	"repro/internal/query"
	"repro/internal/shard"
)

// Sharded is Local over a sharded dataset (internal/shard): the same v1
// contract Local serves for one store file, with frame positions global
// in manifest order and queries answered by the dataset's
// scatter-gather executor. Spec additionally reports the shard count.
// The HTTP layer mounts it exactly like a store — which is how
// /v1/datasets/{name}/query works — and the CLI accepts a manifest path
// wherever it accepts a store path. FrameInfo offsets are relative to
// the owning shard's file.
type Sharded struct{ Local }

// NewSharded wraps an open dataset. The caller keeps ownership of ds.
func NewSharded(ds *shard.Dataset) *Sharded {
	return &Sharded{Local{src: ds, run: ds.Query, shards: ds.Shards()}}
}

// OpenSharded opens the dataset described by the manifest at path.
// Close releases the shard file handles.
func OpenSharded(path string, opts query.Options) (*Sharded, error) {
	ds, err := shard.Open(path, opts)
	if err != nil {
		return nil, FromError(err)
	}
	return NewSharded(ds), nil
}

// Dataset exposes the underlying dataset, for callers that need
// shard-level access.
func (s *Sharded) Dataset() *shard.Dataset { return s.src.(*shard.Dataset) }
