package server

import (
	"context"
	"encoding/json"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/value"
	"repro/internal/workload"
)

// shardedService builds a 3-shard router over a small AIRCA instance.
func shardedService(t testing.TB) (*shard.Router, *core.Engine) {
	t.Helper()
	d, err := workload.ByName("AIRCA")
	if err != nil {
		t.Fatal(err)
	}
	dbShard, err := d.Gen(0.03, 11)
	if err != nil {
		t.Fatal(err)
	}
	router, err := shard.New(d.Schema, d.Access, dbShard, shard.Spec{Shards: 3, Keys: d.ShardKeys})
	if err != nil {
		t.Fatal(err)
	}
	dbSingle, err := d.Gen(0.03, 11)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(d.Schema, d.Access, dbSingle)
	if err != nil {
		t.Fatal(err)
	}
	return router, eng
}

// TestServerOverShardedRouter proves the front end serves a sharded
// cluster through the same code path as a single engine: /query answers
// match the single-engine server row for row, writes route through the
// cluster without moving the version, and /stats carries the per-shard
// breakdown.
func TestServerOverShardedRouter(t *testing.T) {
	router, eng := shardedService(t)
	_, shardedCli := startServer(t, router, Config{MaxRows: -1})
	_, singleCli := startServer(t, eng, Config{MaxRows: -1})
	ctx := context.Background()

	queries := []string{
		`q(airline) :- ontime(f, 42, d, airline, m, delay)`,                                             // single-shard fast path
		`q(origin, dest) :- ontime(f, origin, dest, 3, m, delay)`,                                       // scatter, uncovered
		`q(city) :- ontime(123, origin, dest, al, m, delay), airport(origin, city, st)`,                 // scatter, covered
		`q(origin, dest, cause) :- ontime(77, origin, dest, al, m, delay), delaycause(77, cause, mins)`, // residue, covered: routed plan
		`q(origin, cause) :- ontime(f, origin, d, al, m, delay), delaycause(f, cause, mins)`,            // residue, uncovered: baseline over routed scans
	}
	for _, src := range queries {
		want, err := singleCli.Query(ctx, src)
		if err != nil {
			t.Fatalf("single %q: %v", src, err)
		}
		got, err := shardedCli.Query(ctx, src)
		if err != nil {
			t.Fatalf("sharded %q: %v", src, err)
		}
		if got.RowCount != want.RowCount {
			t.Errorf("%q: rowCount %d (sharded) vs %d (single)", src, got.RowCount, want.RowCount)
		}
		if got.Covered != want.Covered || got.Bounded != want.Bounded {
			t.Errorf("%q: verdicts covered=%v bounded=%v vs covered=%v bounded=%v",
				src, got.Covered, got.Bounded, want.Covered, want.Bounded)
		}
	}

	// Writes through the sharded server: version must not move.
	tup := value.Tuple{value.NewInt(880001), value.NewInt(42), value.NewInt(7),
		value.NewInt(3), value.NewInt(2), value.NewInt(15)}
	mres, err := shardedCli.Insert(ctx, "ontime", []value.Tuple{tup})
	if err != nil {
		t.Fatal(err)
	}
	if mres.Applied != 1 || mres.Version != 0 {
		t.Errorf("insert applied=%d version=%d, want 1 and 0", mres.Applied, mres.Version)
	}
	// A broadcast-relation write fans out through the apply queue (anchor
	// synchronous, remaining members enqueued).
	ctup := value.Tuple{value.NewInt(9777), value.NewInt(1), value.NewInt(1)}
	if _, err := shardedCli.Insert(ctx, "carrier", []value.Tuple{ctup}); err != nil {
		t.Fatal(err)
	}

	stats, err := shardedCli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Shards) != 3 {
		t.Fatalf("stats.Shards has %d entries, want 3 shards", len(stats.Shards))
	}
	var physical int64
	for _, s := range stats.Shards {
		physical += s.DBSize
	}
	if physical < stats.DBSize {
		t.Errorf("per-shard sizes sum to %d, below the logical size %d", physical, stats.DBSize)
	}
	// The single-engine server must not report a breakdown or a ring.
	sstats, err := singleCli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sstats.Shards) != 0 {
		t.Errorf("single-engine stats unexpectedly carries %d shard entries", len(sstats.Shards))
	}
	if sstats.Ring != nil {
		t.Errorf("single-engine stats unexpectedly carries ring state: %+v", sstats.Ring)
	}
	if stats.Ring == nil || stats.Ring.Shards != 3 || stats.Ring.Epoch != 1 {
		t.Errorf("sharded stats ring = %+v, want 3 shards at epoch 1", stats.Ring)
	}
	// Write-path observability: the sharded server reports the broadcast
	// apply queue, the routing breakdown and the residue-executor
	// counters; the single engine reports none of them.
	if stats.Apply == nil {
		t.Fatal("sharded stats missing the apply-queue block")
	}
	if stats.Apply.Enqueued == 0 {
		t.Error("apply queue reports no enqueued writes after an insert")
	}
	if stats.Apply.Errors != 0 {
		t.Errorf("apply queue reports %d store errors", stats.Apply.Errors)
	}
	if stats.Routes == nil {
		t.Fatal("sharded stats missing the routing breakdown")
	}
	if got := stats.Routes.Single + stats.Routes.Scattered + stats.Routes.Residue; got == 0 {
		t.Error("routing breakdown is all zero after served queries")
	}
	if stats.Routes.Residue == 0 {
		t.Error("residue-routed probe not counted in the routing breakdown")
	}
	if stats.Residue == nil {
		t.Fatal("sharded stats missing the residue block")
	}
	if stats.Residue.BroadcastRels == 0 {
		t.Error("residue block reports no broadcast relations on AIRCA")
	}
	// Of the two residue probes only the uncovered one runs the baseline,
	// and only its routed scans ship rows.
	if stats.Residue.Evaluated != 1 {
		t.Errorf("residue.evaluated = %d, want 1 (the uncovered residue probe)", stats.Residue.Evaluated)
	}
	if stats.Residue.BytesShipped <= 0 {
		t.Errorf("residue.bytesShipped = %d after an uncovered residue probe, want > 0", stats.Residue.BytesShipped)
	}
	var raw struct {
		Residue map[string]json.RawMessage `json:"residue"`
	}
	if err := shardedCli.get(ctx, "/stats", &raw); err != nil {
		t.Fatal(err)
	}
	keys := slices.Sorted(maps.Keys(raw.Residue))
	if want := []string{"broadcastRels", "bytesShipped", "evaluated", "repartitions"}; !slices.Equal(keys, want) {
		t.Errorf("residue block keys = %v, want %v", keys, want)
	}
	if sstats.Apply != nil || sstats.Routes != nil || sstats.Residue != nil {
		t.Errorf("single-engine stats unexpectedly carries write-path blocks: apply=%+v routes=%+v residue=%+v",
			sstats.Apply, sstats.Routes, sstats.Residue)
	}
}

// movingRouter is a router whose placement state always reports the given
// in-flight move: moves last milliseconds and the router's batch hook is
// not visible from here, so the wire test pins the mapping instead of
// racing a real one.
type movingRouter struct {
	*shard.Router
	move shard.MigrationProgress
}

func (m movingRouter) RingStatus() shard.RingStatus {
	st := m.Router.RingStatus()
	st.Migration = &m.move
	return st
}

// TestStatsReportsRepartitionInFlight pins the migration block of GET
// /stats for a placement change: an automatic demotion is a move like any
// reshard and shows up with the relation it is moving.
func TestStatsReportsRepartitionInFlight(t *testing.T) {
	router, _ := shardedService(t)
	move := shard.MigrationProgress{From: 3, To: 3, Rel: "carrier", Phase: "copy", Moved: 10, Total: 40}
	_, cli := startServer(t, movingRouter{Router: router, move: move}, Config{MaxRows: -1})
	stats, err := cli.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ring == nil || stats.Ring.Migration == nil {
		t.Fatalf("ring block = %+v, want an in-flight migration", stats.Ring)
	}
	if got, want := *stats.Ring.Migration, (MigrationWire{From: 3, To: 3, Rel: "carrier", Phase: "copy", Moved: 10, Total: 40}); got != want {
		t.Errorf("migration on the wire = %+v, want %+v", got, want)
	}
	raw, err := json.Marshal(stats.Ring.Migration)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"rel":"carrier"`) {
		t.Errorf("migration block lacks the rel key: %s", raw)
	}
}

// TestReshardEndpoint drives an online reshard over the wire: grow 3→5
// with wait, verify the epoch moved and /stats reflects the new layout,
// confirm answers are unchanged, then check the endpoint's guard rails
// (bad target, unsharded server).
func TestReshardEndpoint(t *testing.T) {
	router, eng := shardedService(t)
	_, cli := startServer(t, router, Config{MaxRows: -1})
	_, singleCli := startServer(t, eng, Config{MaxRows: -1})
	ctx := context.Background()

	const probe = `q(airline) :- ontime(f, 42, d, airline, m, delay)`
	before, err := cli.Query(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := cli.Reshard(ctx, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.From != 3 || rep.To != 5 || rep.Epoch != 2 {
		t.Fatalf("reshard response: %+v", rep)
	}
	if rep.Moved == 0 || rep.Seeded == 0 {
		t.Errorf("grow reported moved=%d seeded=%d, want both > 0", rep.Moved, rep.Seeded)
	}

	after, err := cli.Query(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if after.RowCount != before.RowCount {
		t.Errorf("answer changed across reshard: %d rows vs %d", after.RowCount, before.RowCount)
	}
	stats, err := cli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ring == nil || stats.Ring.Shards != 5 || stats.Ring.Epoch != 2 || stats.Ring.Migration != nil {
		t.Errorf("ring after reshard = %+v, want 5 shards at epoch 2, no migration", stats.Ring)
	}
	if len(stats.Shards) != 5 {
		t.Errorf("stats.Shards has %d entries after grow, want 5 shards", len(stats.Shards))
	}

	// Guard rails: invalid target and unsharded serving layer.
	if _, err := cli.Reshard(ctx, 0, true); err == nil {
		t.Error("reshard to 0 shards did not fail")
	}
	_, err = singleCli.Reshard(ctx, 2, true)
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != 501 {
		t.Errorf("reshard on unsharded server: err=%v, want 501 APIError", err)
	}
}
