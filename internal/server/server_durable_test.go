package server

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/ra"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workload"
)

// durableTestEngine builds the graph-search scenario of testEngine on a
// durable engine logging to dir.
func durableTestEngine(t *testing.T, dir string) *core.Engine {
	t.Helper()
	schema := ra.Schema{
		"friend": {"pid", "fid"},
		"cafe":   {"cid", "city"},
		"dine":   {"pid", "cid"},
	}
	A := access.NewSchema(
		access.Constraint{Rel: "friend", X: []string{"pid"}, Y: []string{"fid"}, N: 5000},
		access.Constraint{Rel: "dine", X: []string{"pid"}, Y: []string{"cid"}, N: 31},
		access.Constraint{Rel: "cafe", X: []string{"cid"}, Y: []string{"city"}, N: 1},
	)
	db := store.NewDB(schema)
	if _, err := db.Insert("friend", value.Tuple{value.NewInt(0), value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	eng, err := core.OpenDurable(schema, A, db, core.DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// getJSON fetches a path from the running server and decodes the body,
// returning the HTTP status.
func getJSON(t *testing.T, addr, path string, dst any) int {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

// TestDurableStatsAndHealthDegradation serves a durable engine, checks
// that /stats carries the write-ahead-log block, then breaks the log out
// from under the server and requires /healthz to flip to 503 "degraded"
// with the first retained error.
func TestDurableStatsAndHealthDegradation(t *testing.T) {
	eng := durableTestEngine(t, t.TempDir())
	srv, c := startServer(t, eng, Config{})
	ctx := context.Background()

	var hr HealthResponse
	if code := getJSON(t, srv.Addr(), "/healthz", &hr); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("healthy durable server: got %d %q", code, hr.Status)
	}
	if _, err := c.Insert(ctx, "dine", []value.Tuple{
		{value.NewInt(1), value.NewInt(10)},
	}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Durability == nil {
		t.Fatal("durable server reports no durability block in /stats")
	}
	if st.Durability.Fsync != "off" {
		t.Fatalf("default fsync policy on the wire = %q, want off", st.Durability.Fsync)
	}
	if st.Durability.Appends < 1 || st.Durability.LastLSN < 1 {
		t.Fatalf("insert not visible in durability stats: %+v", st.Durability)
	}
	if st.Durability.Checkpoints < 1 {
		t.Fatalf("boot checkpoint not visible in durability stats: %+v", st.Durability)
	}

	// Break durability: close the log while the server keeps serving. The
	// next write must be rejected and health must flip degraded.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(ctx, "dine", []value.Tuple{
		{value.NewInt(2), value.NewInt(11)},
	}); err == nil {
		t.Fatal("write with a dead log was acknowledged")
	}
	if code := getJSON(t, srv.Addr(), "/healthz", &hr); code != http.StatusServiceUnavailable {
		t.Fatalf("degraded server answered /healthz with %d", code)
	}
	if hr.Status != "degraded" || hr.Error == "" {
		t.Fatalf("degraded health body = %+v", hr)
	}
	// Queries keep working while degraded: reads are served from memory.
	if _, err := c.Query(ctx, friendQuery); err != nil {
		t.Fatal(err)
	}
}

// TestNonDurableHealthUnchanged pins the default: a plain in-memory
// engine answers /healthz 200 and reports no durability block.
func TestNonDurableHealthUnchanged(t *testing.T) {
	srv, c := startServer(t, testEngine(t), Config{})
	var hr HealthResponse
	if code := getJSON(t, srv.Addr(), "/healthz", &hr); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("got %d %q", code, hr.Status)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Durability != nil {
		t.Fatalf("in-memory engine reports durability block %+v", st.Durability)
	}
}

// TestMutateLSNIsLogLastLSN pins MutateResponse.LSN to the serving
// layer's log position after the batch, for inserts and deletes, on a
// durable engine and on a durable sharded router.
func TestMutateLSNIsLogLastLSN(t *testing.T) {
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
	eng := durableTestEngine(t, t.TempDir())
	t.Cleanup(func() { eng.Close() })

	cases := []struct {
		name string
		svc  interface {
			core.Service
			WAL() *wal.Log
		}
		rel string
		tup value.Tuple
	}{
		{"engine", eng, "dine", value.Tuple{value.NewInt(1), value.NewInt(10)}},
		{"router", router, "ontime", value.Tuple{value.NewInt(880002), value.NewInt(42),
			value.NewInt(7), value.NewInt(3), value.NewInt(2), value.NewInt(15)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c := startServer(t, tc.svc, Config{})
			ctx := context.Background()
			for _, op := range []struct {
				name string
				do   func(context.Context, string, []value.Tuple) (*MutateResponse, error)
			}{{"insert", c.Insert}, {"delete", c.Delete}} {
				resp, err := op.do(ctx, tc.rel, []value.Tuple{tc.tup})
				if err != nil {
					t.Fatal(err)
				}
				if resp.Applied != 1 {
					t.Fatalf("%s applied %d tuples, want 1", op.name, resp.Applied)
				}
				if want := tc.svc.WAL().LastLSN(); resp.LSN == 0 || resp.LSN != want {
					t.Errorf("%s: MutateResponse.LSN = %d, want the log's last LSN %d", op.name, resp.LSN, want)
				}
			}
		})
	}
}
