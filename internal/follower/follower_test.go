package follower

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/ra"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/wal"
)

// testSchema is the Example-1 graph-search scenario used across the repo.
func testSchema() (ra.Schema, *access.Schema) {
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
	return schema, A
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// startPrimary opens a durable engine in its own directory and serves it
// over a loopback listener.
func startPrimary(t testing.TB, walOpts wal.Options, ckEvery int64) (*core.Engine, *server.Client, string) {
	t.Helper()
	schema, A := testSchema()
	eng, err := core.OpenDurable(schema, A, store.NewDB(schema), core.DurableConfig{
		Dir:             t.TempDir(),
		WAL:             walOpts,
		CheckpointEvery: ckEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	cli, url := serveOver(t, eng)
	return eng, cli, url
}

// serveOver serves any core.Service on a loopback listener, returning a
// ready client and the base URL.
func serveOver(t testing.TB, svc core.Service) (*server.Client, string) {
	return serveOverCfg(t, svc, server.Config{})
}

// serveOverCfg is serveOver with an explicit server configuration.
func serveOverCfg(t testing.TB, svc core.Service, cfg server.Config) (*server.Client, string) {
	t.Helper()
	cfg.Logger = quietLogger()
	srv := server.New(svc, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	cli := server.NewClient(srv.Addr())
	if err := cli.WaitReady(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return cli, srv.Addr()
}

// openFollower opens a follower node against primary and serves it.
func openFollower(t testing.TB, primary, dir string) (*Node, *server.Client) {
	t.Helper()
	n, err := Open(context.Background(), Config{
		Primary:  "http://" + primary,
		DataDir:  dir,
		ID:       "test-" + dir[len(dir)-8:],
		AckEvery: 10 * time.Millisecond,
		Logger:   quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	cli, _ := serveOver(t, n)
	return n, cli
}

// rowKeys sorts a response's rows into canonical tuple keys.
func rowKeys(resp *server.QueryResponse) []string {
	keys := make([]string, 0, len(resp.Rows))
	for _, tup := range resp.RowTuples() {
		keys = append(keys, tup.Key())
	}
	sort.Strings(keys)
	return keys
}

// seedRows writes the standard scenario through the primary's HTTP front
// end and returns the final batch LSN.
func seedRows(t testing.TB, cli *server.Client) uint64 {
	t.Helper()
	ctx := context.Background()
	var lsn uint64
	for _, batch := range []struct {
		rel  string
		rows []value.Tuple
	}{
		{"friend", []value.Tuple{
			{value.NewInt(0), value.NewInt(1)},
			{value.NewInt(0), value.NewInt(2)},
		}},
		{"dine", []value.Tuple{
			{value.NewInt(1), value.NewInt(10)},
			{value.NewInt(2), value.NewInt(11)},
		}},
		{"cafe", []value.Tuple{
			{value.NewInt(10), value.NewStr("nyc")},
			{value.NewInt(11), value.NewStr("sf")},
		}},
	} {
		resp, err := cli.Insert(ctx, batch.rel, batch.rows)
		if err != nil {
			t.Fatal(err)
		}
		if resp.LSN == 0 {
			t.Fatal("durable primary must stamp MutateResponse.LSN")
		}
		lsn = resp.LSN
	}
	return lsn
}

const friendQuery = "q(city) :- friend(0, f), dine(f, c), cafe(c, city)"

// fencedQuery runs query on cli with a MinLSN read-your-writes fence.
func fencedQuery(t testing.TB, cli *server.Client, query string, minLSN uint64) *server.QueryResponse {
	t.Helper()
	resp, err := cli.QueryOpts(context.Background(), server.QueryRequest{Query: query, MinLSN: minLSN})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestFollowerServesReplicatedReads(t *testing.T) {
	eng, pcli, purl := startPrimary(t, wal.Options{}, -1)
	_, f1 := openFollower(t, purl, t.TempDir())
	_, f2 := openFollower(t, purl, t.TempDir())

	lsn := seedRows(t, pcli)
	want := rowKeys(fencedQuery(t, pcli, friendQuery, 0))
	if len(want) != 2 {
		t.Fatalf("primary answered %d rows, want 2", len(want))
	}
	for i, fcli := range []*server.Client{f1, f2} {
		resp := fencedQuery(t, fcli, friendQuery, lsn)
		if got := rowKeys(resp); strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("follower %d diverges: got %v want %v", i+1, got, want)
		}
		if !resp.Covered || !resp.Bounded {
			t.Fatalf("follower %d lost coverage: covered=%v bounded=%v", i+1, resp.Covered, resp.Bounded)
		}
	}

	// A delete and an insert replicate too, and the fence makes them
	// visible without sleeps.
	ctx := context.Background()
	if _, err := pcli.Delete(ctx, "dine", []value.Tuple{{value.NewInt(2), value.NewInt(11)}}); err != nil {
		t.Fatal(err)
	}
	ins, err := pcli.Insert(ctx, "cafe", []value.Tuple{{value.NewInt(12), value.NewStr("la")}})
	if err != nil {
		t.Fatal(err)
	}
	want = rowKeys(fencedQuery(t, pcli, friendQuery, 0))
	for i, fcli := range []*server.Client{f1, f2} {
		if got := rowKeys(fencedQuery(t, fcli, friendQuery, ins.LSN)); strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("follower %d diverges after delete: got %v want %v", i+1, got, want)
		}
	}

	// A constraint change replicates through the same stream: removing
	// cafe's constraint uncovers the query on primary and followers alike.
	con := access.Constraint{Rel: "cafe", X: []string{"cid"}, Y: []string{"city"}, N: 1}
	if !eng.RemoveConstraint(con) {
		t.Fatal("primary should have the cafe constraint installed")
	}
	st, _ := eng.DurabilityStats()
	for i, fcli := range []*server.Client{f1, f2} {
		if resp := fencedQuery(t, fcli, friendQuery, st.LastLSN); resp.Covered {
			t.Fatalf("follower %d still covered after constraint removal", i+1)
		}
	}
	if err := eng.AddConstraints(con); err != nil {
		t.Fatal(err)
	}
	st, _ = eng.DurabilityStats()
	for i, fcli := range []*server.Client{f1, f2} {
		if resp := fencedQuery(t, fcli, friendQuery, st.LastLSN); !resp.Covered {
			t.Fatalf("follower %d not covered after constraint re-add", i+1)
		}
	}
}

func TestFollowerFenceTimesOut(t *testing.T) {
	_, pcli, purl := startPrimary(t, wal.Options{}, -1)
	lsn := seedRows(t, pcli)
	n, err := Open(context.Background(), Config{
		Primary: "http://" + purl, DataDir: t.TempDir(), Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	if err := n.WaitLSN(context.Background(), lsn); err != nil {
		t.Fatal(err)
	}
	// A fence far beyond the primary's LSN cannot be satisfied: the read
	// must answer 504 when the server deadline passes, not hang forever
	// or return stale data.
	fcli, _ := serveOverCfg(t, n, server.Config{RequestTimeout: 300 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = fcli.QueryOpts(ctx, server.QueryRequest{Query: friendQuery, MinLSN: lsn + 1_000_000})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("want 504 APIError for unreachable fence, got %v", err)
	}
}

func TestFollowerRestartResumesLocally(t *testing.T) {
	_, pcli, purl := startPrimary(t, wal.Options{}, -1)
	lsn := seedRows(t, pcli)
	dir := t.TempDir()
	n1, _ := openFollower(t, purl, dir)
	if err := n1.WaitLSN(context.Background(), lsn); err != nil {
		t.Fatal(err)
	}
	if n1.ResumedFrom() != 0 {
		t.Fatalf("fresh follower claims resume from %d", n1.ResumedFrom())
	}
	if err := n1.Close(); err != nil {
		t.Fatal(err)
	}

	// Writes land while the follower is down.
	ins, err := pcli.Insert(context.Background(), "friend", []value.Tuple{{value.NewInt(0), value.NewInt(3)}})
	if err != nil {
		t.Fatal(err)
	}

	n2, fcli := openFollower(t, purl, dir)
	if n2.ResumedFrom() == 0 {
		t.Fatal("restarted follower should resume from local state")
	}
	if n2.Stats().Follower.SnapshotsFetched != 0 {
		t.Fatal("resume must not download a snapshot")
	}
	want := rowKeys(fencedQuery(t, pcli, friendQuery, 0))
	if got := rowKeys(fencedQuery(t, fcli, friendQuery, ins.LSN)); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("resumed follower diverges: got %v want %v", got, want)
	}
}

func TestFollowerRebootstrapsAfterPrune(t *testing.T) {
	// Small segments + aggressive checkpoints so the primary prunes the
	// log past a stopped follower's position.
	eng, pcli, purl := startPrimary(t, wal.Options{SegmentBytes: 512}, -1)
	lsn := seedRows(t, pcli)
	dir := t.TempDir()
	n1, _ := openFollower(t, purl, dir)
	if err := n1.WaitLSN(context.Background(), lsn); err != nil {
		t.Fatal(err)
	}
	if err := n1.Close(); err != nil {
		t.Fatal(err)
	}

	// Push the log far past the follower and checkpoint twice: segment
	// pruning keeps only the tail, so the follower's position is gone.
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		for j := 0; j < 40; j++ {
			if _, err := pcli.Insert(ctx, "friend", []value.Tuple{{value.NewInt(int64(100 + i)), value.NewInt(int64(j))}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	log := eng.WAL()
	oldest, ok := log.OldestLSN()
	if !ok || oldest <= lsn+1 {
		t.Skipf("primary did not prune past the follower (oldest %d, follower at %d)", oldest, lsn)
	}

	n2, fcli := openFollower(t, purl, dir)
	last := log.LastLSN()
	if err := n2.WaitLSN(ctx, last); err != nil {
		t.Fatal(err)
	}
	if n2.Stats().Follower.SnapshotsFetched == 0 {
		t.Fatal("pruned follower must re-bootstrap from a snapshot")
	}
	want := rowKeys(fencedQuery(t, pcli, friendQuery, 0))
	if got := rowKeys(fencedQuery(t, fcli, friendQuery, last)); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("re-bootstrapped follower diverges: got %v want %v", got, want)
	}
}

func TestFollowerIsReadOnly(t *testing.T) {
	_, pcli, purl := startPrimary(t, wal.Options{}, -1)
	seedRows(t, pcli)
	n, fcli := openFollower(t, purl, t.TempDir())

	if _, err := n.Insert("friend", value.Tuple{value.NewInt(9), value.NewInt(9)}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Insert: want ErrReadOnly, got %v", err)
	}
	if _, err := n.Delete("friend", value.Tuple{value.NewInt(0), value.NewInt(1)}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Delete: want ErrReadOnly, got %v", err)
	}
	if err := n.AddConstraints(access.Constraint{Rel: "friend", X: []string{"pid"}, Y: []string{"fid"}, N: 1}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("AddConstraints: want ErrReadOnly, got %v", err)
	}
	if n.RemoveConstraint(access.Constraint{Rel: "cafe", X: []string{"cid"}, Y: []string{"city"}, N: 1}) {
		t.Fatal("RemoveConstraint on a follower must refuse")
	}
	// And over HTTP: the front end surfaces the refusal as an error.
	if _, err := fcli.Insert(context.Background(), "friend", []value.Tuple{{value.NewInt(9), value.NewInt(9)}}); err == nil {
		t.Fatal("HTTP insert against a follower must fail")
	}
}

func TestFollowerHealthDegradesOnStall(t *testing.T) {
	schema, A := testSchema()
	eng, err := core.OpenDurable(schema, A, store.NewDB(schema), core.DurableConfig{
		Dir: t.TempDir(), CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := server.New(eng, server.Config{Logger: quietLogger()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	pcli := server.NewClient(srv.Addr())
	if err := pcli.WaitReady(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}

	n, err := Open(context.Background(), Config{
		Primary:    "http://" + srv.Addr(),
		DataDir:    t.TempDir(),
		StallAfter: 150 * time.Millisecond,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Health(); err != nil {
		t.Fatalf("fresh follower must be healthy, got %v", err)
	}

	// Kill the primary: the stream dies, reconnects fail, and within
	// StallAfter the follower reports itself degraded.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if n.Health() != nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("follower stayed healthy after losing its primary")
}

func TestReplicationStatsBlocks(t *testing.T) {
	_, pcli, purl := startPrimary(t, wal.Options{}, -1)
	lsn := seedRows(t, pcli)
	n, fcli := openFollower(t, purl, t.TempDir())
	if err := n.WaitLSN(context.Background(), lsn); err != nil {
		t.Fatal(err)
	}

	// Follower-side /stats carries its replica view.
	fstats, err := fcli.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fstats.Follower == nil {
		t.Fatal("follower /stats missing follower block")
	}
	if fstats.Follower.AppliedLSN < lsn || !fstats.Follower.Streaming {
		t.Fatalf("follower block %+v: want applied >= %d and streaming", fstats.Follower, lsn)
	}
	if fstats.Replication != nil {
		t.Fatal("a follower with no downstream followers should omit the replication block")
	}

	// Primary-side /stats names the follower once its ack lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		pstats, err := pcli.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if pstats.Replication != nil {
			var fw *server.FollowerConnWire
			for i := range pstats.Replication.Followers {
				if pstats.Replication.Followers[i].ID == n.cfg.ID {
					fw = &pstats.Replication.Followers[i]
				}
			}
			if fw != nil && fw.Connected && fw.AckedLSN >= lsn {
				if fw.LagRecords != 0 {
					t.Fatalf("caught-up follower shows lag %d", fw.LagRecords)
				}
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary never reported follower ack; last stats %+v", pstats.Replication)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestFollowerCascadesStream(t *testing.T) {
	// A follower serves /wal/stream itself (LSN parity makes its local
	// log identical), so a second-tier follower can tail the first.
	_, pcli, purl := startPrimary(t, wal.Options{}, -1)
	lsn := seedRows(t, pcli)
	mid, _ := openFollower(t, purl, t.TempDir())
	if err := mid.WaitLSN(context.Background(), lsn); err != nil {
		t.Fatal(err)
	}
	midCli, midURL := serveOver(t, mid)
	_ = midCli
	leaf, leafCli := openFollower(t, midURL, t.TempDir())

	ins, err := pcli.Insert(context.Background(), "friend", []value.Tuple{{value.NewInt(0), value.NewInt(4)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := leaf.WaitLSN(context.Background(), ins.LSN); err != nil {
		t.Fatal(err)
	}
	want := rowKeys(fencedQuery(t, pcli, friendQuery, 0))
	if got := rowKeys(fencedQuery(t, leafCli, friendQuery, ins.LSN)); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("second-tier follower diverges: got %v want %v", got, want)
	}
}
