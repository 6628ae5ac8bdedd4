package server

import (
	"context"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ivm"
	"repro/internal/shard"
	"repro/internal/workload"
)

// statsKeyPaths fetches GET /stats as a generic JSON document and returns
// its sorted key paths: nested objects join with ".", and every element
// of an array contributes to one shared "[]" path.
func statsKeyPaths(t *testing.T, cli *Client) []string {
	t.Helper()
	var doc map[string]any
	if err := cli.get(context.Background(), "/stats", &doc); err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	collectKeyPaths("", doc, set)
	return slices.Sorted(maps.Keys(set))
}

func collectKeyPaths(prefix string, v any, set map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			set[p] = true
			collectKeyPaths(p, child, set)
		}
	case []any:
		for _, el := range v {
			collectKeyPaths(prefix+"[]", el, set)
		}
	}
}

// statsBlock returns name followed by name.k for every key k; a key
// starting with "[]" names a field of the block's array elements.
func statsBlock(name string, keys ...string) []string {
	out := []string{name}
	for _, k := range keys {
		if strings.HasPrefix(k, "[]") {
			out = append(out, name+k)
		} else {
			out = append(out, name+"."+k)
		}
	}
	return out
}

// The key sets of the /stats blocks, as they read with zero-valued
// omitempty counters (no evictions, purges, fallbacks or denials).
var (
	cacheKeys = []string{"hits", "misses", "evictions", "purges", "entries", "hitRate"}
	baseKeys  = slices.Concat(
		statsBlock("cache", cacheKeys...),
		statsBlock("executor", "batches", "rows", "rowsPerBatch", "arenaGets", "arenaNews",
			"poolHitRate", "arenaBytes", "sigBuilt", "sigHit", "sigMiss"),
		[]string{"dbSize", "indexEntries", "version", "requests", "inFlight", "uptimeSeconds"},
	)
	ivmKeys = statsBlock("ivm", "materialized", "budget", "admitted", "rejected", "hits",
		"deltaApplies", "seedFetched", "seedScanned", "buildMicros")
	durabilityKeys = statsBlock("durability", "lastLSN", "checkpointLSN", "segments",
		"segmentBytes", "appends", "checkpoints", "fsync", "fsyncs", "fsyncMeanMicros")
	routerKeys = slices.Concat(
		statsBlock("shards", "[].label", "[].queries", "[].dbSize", "[].indexEntries", "[].version"),
		statsBlock("shards[].cache", cacheKeys...),
		statsBlock("ring", "epoch", "shards", "vnodes"),
		statsBlock("apply", "enqueued", "applied", "depth", "batches", "maxBatch", "errors"),
		statsBlock("routes", "single", "scattered", "residue"),
		statsBlock("residue", "broadcastRels", "repartitions", "bytesShipped", "evaluated"),
	)
	migrationKeys = statsBlock("ring.migration", "from", "to", "rel", "phase", "moved", "total")
)

// TestStatsKeySet pins the exact set of JSON key paths GET /stats serves
// for each serving topology (the follower topologies are pinned in
// internal/follower). Values are not compared: the wall is the document's
// shape, which operators and dashboards read by key.
func TestStatsKeySet(t *testing.T) {
	cases := []struct {
		name string
		svc  func(t *testing.T) core.Service
		want []string
	}{
		{"engine-ivm-off", func(t *testing.T) core.Service {
			eng := testEngine(t)
			eng.SetIVMConfig(ivm.Config{})
			return eng
		}, baseKeys},
		{"engine-ivm-on", func(t *testing.T) core.Service {
			return testEngine(t)
		}, slices.Concat(baseKeys, ivmKeys)},
		{"durable-engine", func(t *testing.T) core.Service {
			eng := durableTestEngine(t, t.TempDir())
			t.Cleanup(func() { eng.Close() })
			return eng
		}, slices.Concat(baseKeys, ivmKeys, durabilityKeys)},
		{"router-3-shards", func(t *testing.T) core.Service {
			router, _ := shardedService(t)
			return router
		}, slices.Concat(baseKeys, ivmKeys, routerKeys)},
		{"durable-router-mid-copy", func(t *testing.T) core.Service {
			d, err := workload.ByName("AIRCA")
			if err != nil {
				t.Fatal(err)
			}
			db, err := d.Gen(0.03, 11)
			if err != nil {
				t.Fatal(err)
			}
			router, err := shard.OpenDurable(d.Schema, d.Access, db,
				shard.Spec{Shards: 3, Keys: d.ShardKeys}, core.DurableConfig{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { router.Close() })
			return movingRouter{Router: router,
				move: core.MigrationProgress{From: 3, To: 3, Rel: "carrier", Phase: "copy", Moved: 10, Total: 40}}
		}, slices.Concat(baseKeys, ivmKeys, durabilityKeys, routerKeys, migrationKeys)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, cli := startServer(t, tc.svc(t), Config{})
			got := statsKeyPaths(t, cli)
			want := slices.Sorted(slices.Values(tc.want))
			if !slices.Equal(got, want) {
				t.Errorf("/stats key paths:\n got %v\nwant %v", got, want)
			}
		})
	}
}
