package main

import (
	"context"
	"math/rand"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/api"
	"repro/internal/query"
	"repro/internal/tensor"
)

// replayScan runs the scan's visit schedule in process against a dataset
// of n small frames whose decoded-frame cache holds budgetFrames of
// them, and returns the cache's hit and miss counts.
func replayScan(t *testing.T, budgetFrames int, visits int) (hits, misses int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	frames := make([]*tensor.Tensor, scanFrames)
	for i := range frames {
		frames[i] = tensor.New(8, 8, 8)
		for j := range frames[i].Data() {
			frames[i].Data()[j] = rng.Float64()
		}
	}
	manifest := filepath.Join(t.TempDir(), "scan.json")
	if err := packDataset(manifest, "goblaz:block=4x4x4", frames, 2); err != nil {
		t.Fatal(err)
	}
	frameBytes := int64(8 * 8 * 8 * 8)
	sh, err := api.OpenSharded(manifest, query.Options{CacheBytes: int64(budgetFrames) * frameBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ctx := context.Background()
	box := []int{4, 4, 4}
	for k := 0; k < visits; k++ {
		f, op := scanVisit(k)
		next := (f + 1) % scanFrames
		from, to := min(f, scanFrames-reduceWindow), min(f, scanFrames-reduceWindow)+reduceWindow
		switch op {
		case opFrame:
			_, err = sh.Frame(ctx, f)
		case opRegion:
			_, err = sh.Region(ctx, f, []int{2, 2, 2}, box)
		case opStats:
			_, err = sh.Stats(ctx, f, []string{query.AggMean, query.AggMin, query.AggMax})
		case opCompare:
			_, err = sh.Query(ctx, &query.Request{Select: query.Selector{Labels: strconv.Itoa(next)},
				Metric: &query.MetricRequest{Kind: query.MetricCosine, Against: &f}})
		case opReduce:
			_, err = sh.Query(ctx, &query.Request{Select: query.Selector{From: &from, To: &to}, Reduce: reduceAggs})
		}
		if err != nil {
			t.Fatalf("visit %d (%s of frame %d): %v", k, op, f, err)
		}
	}
	st := sh.Dataset().Cache().Stats()
	return st.Hits, st.Misses
}

// TestCyclicScanDefeatsTheLRU checks the scan workload's premise: with a
// cache of two thirds of the corpus, as serve's 64 MiB cache is of the
// 96 MiB scan corpus, the visit schedule never finds a frame in it.
func TestCyclicScanDefeatsTheLRU(t *testing.T) {
	visits := 3 * len(allOps) * scanFrames // three full rotations of every op over every frame
	hits, misses := replayScan(t, scanFrames*2/3, visits)
	if misses == 0 {
		t.Fatal("the schedule never used the cache; the check proves nothing")
	}
	if hits != 0 {
		t.Errorf("%d cache hits (%d misses); the cyclic scan must never hit", hits, misses)
	}
	// Control: a cache that holds the whole corpus does hit, so the
	// zero above is the schedule's doing.
	if hits, _ := replayScan(t, scanFrames, visits); hits == 0 {
		t.Error("a corpus-sized cache saw no hits; the replay does not exercise the cache")
	}
}
