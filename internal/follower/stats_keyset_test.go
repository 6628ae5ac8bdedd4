package follower

import (
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"slices"
	"testing"
	"time"

	"repro/internal/wal"
)

// statsKeyPaths fetches GET /stats from addr as a generic JSON document
// and returns its sorted key paths: nested objects join with ".", and
// every element of an array contributes to one shared "[]" path.
func statsKeyPaths(t *testing.T, addr string) []string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
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

// statsBlock returns name followed by name.k for every key k.
func statsBlock(name string, keys ...string) []string {
	out := []string{name}
	for _, k := range keys {
		out = append(out, name+"."+k)
	}
	return out
}

// durableNodeKeys is the /stats key set of a durable engine with IVM on
// and zero-valued omitempty counters; internal/server's TestStatsKeySet
// pins the same blocks for the other topologies.
var durableNodeKeys = slices.Concat(
	statsBlock("cache", "hits", "misses", "evictions", "purges", "entries", "hitRate"),
	statsBlock("executor", "batches", "rows", "rowsPerBatch", "arenaGets", "arenaNews",
		"poolHitRate", "arenaBytes", "sigBuilt", "sigHit", "sigMiss"),
	[]string{"dbSize", "indexEntries", "version", "requests", "inFlight", "uptimeSeconds"},
	statsBlock("ivm", "materialized", "budget", "admitted", "rejected", "hits",
		"deltaApplies", "seedFetched", "seedScanned", "buildMicros"),
	statsBlock("durability", "lastLSN", "checkpointLSN", "segments",
		"segmentBytes", "appends", "checkpoints", "fsync", "fsyncs", "fsyncMeanMicros"),
)

// TestStatsKeySet pins the exact set of JSON key paths GET /stats serves
// on a follower node and on its primary once the follower is connected.
func TestStatsKeySet(t *testing.T) {
	_, pcli, purl := startPrimary(t, wal.Options{}, -1)
	lsn := seedRows(t, pcli)
	n, _ := openFollower(t, purl, t.TempDir())
	if err := n.WaitLSN(context.Background(), lsn); err != nil {
		t.Fatal(err)
	}
	_, furl := serveOver(t, n)

	t.Run("follower", func(t *testing.T) {
		want := slices.Concat(durableNodeKeys, statsBlock("follower", "primary", "id",
			"appliedLSN", "primaryLSN", "streaming", "lastContactSeconds", "recordsApplied",
			"reconnects", "snapshotsFetched"))
		if got := statsKeyPaths(t, furl); !slices.Equal(got, slices.Sorted(slices.Values(want))) {
			t.Errorf("/stats key paths:\n got %v\nwant %v", got, slices.Sorted(slices.Values(want)))
		}
	})

	t.Run("primary-with-follower", func(t *testing.T) {
		// Wait until the primary reports the follower's stream as live:
		// an ack that lands first registers it as disconnected, which
		// reports lastSeenSeconds instead of connectedSeconds.
		deadline := time.Now().Add(5 * time.Second)
		for {
			st, err := pcli.Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if st.Replication != nil && len(st.Replication.Followers) == 1 && st.Replication.Followers[0].Connected {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("primary never reported a connected follower; last block %+v", st.Replication)
			}
			time.Sleep(10 * time.Millisecond)
		}
		want := slices.Concat(durableNodeKeys,
			statsBlock("replication", "followers", "snapshotsServed"),
			statsBlock("replication.followers[]", "id", "connected", "sentLSN", "ackedLSN",
				"lagRecords", "lagBytes", "connectedSeconds")[1:])
		if got := statsKeyPaths(t, purl); !slices.Equal(got, slices.Sorted(slices.Values(want))) {
			t.Errorf("/stats key paths:\n got %v\nwant %v", got, slices.Sorted(slices.Values(want)))
		}
	})
}
