package follower

// The follower crash harness: a child process runs a follower node
// tailing a primary hosted by the parent, publishing its applied
// watermark to a side file. The parent SIGKILLs the child mid-stream,
// keeps writing, then reopens the same data directory and proves the
// follower resumes from its own recovered LSN — no snapshot download,
// zero primary-side state — and converges to a state differentially
// identical to the primary.

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/value"
	"repro/internal/wal"
)

// Environment handed to the SIGKILL child; TestFollowerCrashChild is
// inert unless both are set.
const (
	crashChildPrimaryEnv = "BOUNDED_FOLLOWER_CHILD_PRIMARY"
	crashChildDirEnv     = "BOUNDED_FOLLOWER_CHILD_DIR"
)

// appliedPath is the side file where the child publishes its applied
// watermark (written atomically via rename).
func appliedPath(dir string) string { return filepath.Join(dir, "applied") }

// TestFollowerCrashChild is the victim process of
// TestFollowerCrashResume: it opens a follower in the directory named by
// the environment, tails the parent's primary, and publishes every
// applied watermark until the parent kills it.
func TestFollowerCrashChild(t *testing.T) {
	primary, dir := os.Getenv(crashChildPrimaryEnv), os.Getenv(crashChildDirEnv)
	if primary == "" || dir == "" {
		t.Skip("crash child: run only as a subprocess of TestFollowerCrashResume")
	}
	n, err := Open(context.Background(), Config{
		Primary: primary,
		DataDir: dir,
		ID:      "crash-child",
		Logger:  quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tmp := appliedPath(dir) + ".tmp"
	for {
		lsn := n.AppliedLSN()
		if err := os.WriteFile(tmp, []byte(strconv.FormatUint(lsn, 10)), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, appliedPath(dir)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
}

// readApplied returns the last applied LSN the child published, or 0.
func readApplied(dir string) uint64 {
	b, err := os.ReadFile(appliedPath(dir))
	if err != nil {
		return 0
	}
	n, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// TestFollowerCrashResume re-executes this test binary as a child
// follower, SIGKILLs it mid-stream while the primary keeps writing, then
// reopens the same directory and requires (a) resume from the locally
// recovered LSN with no snapshot download, and (b) a fenced differential
// identical to the primary once caught up.
func TestFollowerCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill test skipped in -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot re-exec test binary: %v", err)
	}
	_, pcli, purl := startPrimary(t, wal.Options{}, -1)
	seedRows(t, pcli)

	// Write storm against the primary for the whole life of the child:
	// the kill lands mid-stream, not in a quiet moment.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := context.Background()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			row := []value.Tuple{{value.NewInt(int64(i % 50)), value.NewInt(int64(1000 + i%97))}}
			if _, err := pcli.Insert(ctx, "friend", row); err != nil {
				return
			}
			if i%3 == 0 {
				if _, err := pcli.Delete(ctx, "friend", row); err != nil {
					return
				}
			}
		}
	}()
	defer func() {
		select {
		case <-stop:
		default:
			close(stop)
		}
		wg.Wait()
	}()

	dir := t.TempDir()
	cmd := exec.Command(exe, "-test.run=^TestFollowerCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		crashChildPrimaryEnv+"=http://"+purl,
		crashChildDirEnv+"="+dir)
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Let the child apply a healthy stretch of the stream, then kill it
	// with no warning whatsoever.
	deadline := time.Now().Add(30 * time.Second)
	for readApplied(dir) < 40 {
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatalf("child never applied 40 records; output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait() // the kill makes the child's exit status uninteresting

	// The primary keeps writing past the kill, then the storm stops and
	// the surviving directory is reopened.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	n, fcli := openFollower(t, purl, dir)
	if n.ResumedFrom() == 0 {
		t.Fatal("killed follower must resume from locally recovered state")
	}
	st := n.Stats().Follower
	if st.SnapshotsFetched != 0 {
		t.Fatalf("resume downloaded %d snapshots; local recovery should need none", st.SnapshotsFetched)
	}

	pstats, err := pcli.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pstats.Durability == nil {
		t.Fatal("primary /stats missing durability block")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := n.WaitLSN(ctx, pstats.Durability.LastLSN); err != nil {
		t.Fatalf("resumed follower never caught up to LSN %d: %v", pstats.Durability.LastLSN, err)
	}
	for _, q := range []string{
		friendQuery,
		"q(f) :- friend(0, f)",
		"q(city) :- cafe(10, city)",
	} {
		want := rowKeys(fencedQuery(t, pcli, q, 0))
		if got := rowKeys(fencedQuery(t, fcli, q, pstats.Durability.LastLSN)); strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("resumed follower diverges on %q: got %v want %v", q, got, want)
		}
	}
}
