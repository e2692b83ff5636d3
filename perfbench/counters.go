package main

import (
	"strings"

	"repro/internal/obs"
)

// counterRows diffs /v1/debug/metrics snapshots scraped from every server
// before and after a run into the per-layer counter rows. Counters only
// grow, so after − before is the run's share; histogram tails are read
// from the after snapshot, which covers the run because every run starts
// fresh processes.
func counterRows(before, after []obs.Snapshot, ops float64, frameBytes, storeGrowth float64) map[string]float64 {
	var b, a []map[string]float64
	for i := range after {
		b = append(b, before[i].Flatten())
		a = append(a, after[i].Flatten())
	}
	sum := func(prefix string) float64 {
		var total float64
		for i := range a {
			for key, v := range a[i] {
				if strings.HasPrefix(key, prefix) {
					total += v - b[i][key]
				}
			}
		}
		return total
	}
	per := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / ops
	}
	hits, misses := sum("goblaz_query_cache_hits_total"), sum("goblaz_query_cache_misses_total")
	rows := map[string]float64{
		"query.frames_decoded_per_op":    per(sum("goblaz_query_frames_total{space=fallback}")),
		"query.frames_compressed_per_op": per(sum("goblaz_query_frames_total{space=compressed}")),
		// Flattened labels are sorted by name, so op comes before spec.
		"codec.decode_bytes_per_op":    per(sum("goblaz_codec_op_bytes_total{op=decode,")),
		"store.payload_bytes_per_op":   per(sum("goblaz_store_payload_bytes_total")),
		"limit.admitted_per_op":        per(sum("goblaz_limit_admitted_total")),
		"limit.shed":                   sum("goblaz_limit_shed_total"),
		"limit.queue_wait_p99_ms":      1000 * histP99(after, "goblaz_limit_queue_wait_seconds"),
		"cluster.parts_per_op":         per(sum("goblaz_cluster_parts_total")),
		"cluster.remote_frames_per_op": per(sum("goblaz_cluster_remote_frames_total")),
		"ingest.wal_fsync_p99_ms":      1000 * histP99(after, "goblaz_ingest_wal_fsync_seconds"),
		"ingest.commits":               sum("goblaz_ingest_commits_total"),
		"ingest.compactions":           sum("goblaz_ingest_compactions_total"),
	}
	rows["query.cache_hit_ratio"] = 0
	if hits+misses > 0 {
		rows["query.cache_hit_ratio"] = hits / (hits + misses)
	}
	rows["ingest.write_amp"] = 0
	if raw := sum("goblaz_ingest_frames_total") * frameBytes; raw > 0 {
		rows["ingest.write_amp"] = (sum("goblaz_ingest_wal_bytes_total") + storeGrowth) / raw
	}
	return rows
}

// histP99 returns the largest p99 any server reports for a histogram.
func histP99(snaps []obs.Snapshot, name string) float64 {
	var worst float64
	for _, s := range snaps {
		for _, m := range s.Metrics {
			if m.Name != name {
				continue
			}
			for _, smp := range m.Samples {
				worst = max(worst, smp.P99)
			}
		}
	}
	return worst
}
