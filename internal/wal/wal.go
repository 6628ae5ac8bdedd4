// Package wal is the durability layer: a segmented, CRC32C-framed
// write-ahead log of tuple writes and access-constraint changes, plus
// LSN-stamped checkpoints of the store snapshot. Records are stamped with a
// monotone log sequence number that is unified with the shard apply-queue
// ticket counter, so the replication watermark and the durability horizon
// are the same number. Recovery loads the latest valid checkpoint, replays
// the log suffix and rebuilds indices in O(|D|); a torn final record (the
// normal crash artifact) is truncated on open, while corruption anywhere
// else is reported as an error.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Policy selects when appended records are forced to stable storage.
type Policy uint8

const (
	// SyncOff never fsyncs on the append path: cheapest, loses the OS
	// write-back window on power failure (not on process crash — appends
	// are still write()s and survive a kill).
	SyncOff Policy = iota
	// SyncInterval fsyncs at most once per FsyncInterval, amortizing the
	// sync cost over all appends in the window; a crash loses at most one
	// window of acknowledged writes to power failure.
	SyncInterval
	// SyncCommit fsyncs before every append returns: an acknowledged write
	// is on stable storage, at per-operation fsync cost.
	SyncCommit
)

// ParsePolicy maps the CLI spelling ("off", "interval", "commit") to a
// Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "off":
		return SyncOff, nil
	case "interval":
		return SyncInterval, nil
	case "commit":
		return SyncCommit, nil
	default:
		return SyncOff, fmt.Errorf("wal: unknown fsync policy %q (want off, interval or commit)", s)
	}
}

// String returns the CLI spelling of the policy.
func (p Policy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncCommit:
		return "commit"
	default:
		return "off"
	}
}

// Options configures a Log. The zero value is usable: fsync off, default
// interval and segment size.
type Options struct {
	// Fsync is the sync policy for appended records.
	Fsync Policy
	// FsyncInterval is the window for SyncInterval (default 50ms).
	FsyncInterval time.Duration
	// SegmentBytes rolls the active segment when it would exceed this size
	// (default 8 MiB). Rolling always syncs the finished segment, so only
	// the final segment can ever be torn.
	SegmentBytes int64
}

const (
	defaultFsyncInterval = 50 * time.Millisecond
	defaultSegmentBytes  = 8 << 20
	// maxRecordBytes bounds a single frame body; anything larger read back
	// from disk is treated as a torn length header.
	maxRecordBytes = 16 << 20
	// frameHeaderLen is the [u32 length][u32 crc32c] prefix.
	frameHeaderLen = 8
	// bodyPrefixLen is the [u64 lsn][u8 kind] prefix of every body.
	bodyPrefixLen = 9

	segPrefix = "wal-"
	segSuffix = ".seg"
	ckPrefix  = "checkpoint-"
	ckSuffix  = ".snap"
	// keepCheckpoints is how many checkpoint files are retained. Keeping
	// the previous one as well as the latest means a checkpoint that turns
	// out unreadable still has a fallback whose log suffix is intact:
	// segments are pruned only below the OLDER retained checkpoint.
	keepCheckpoints = 2
)

// castagnoli is the CRC32C table used for frame checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segment is one log file; start is the LSN of its first record (also its
// filename), size its current byte length.
type segment struct {
	path  string
	start uint64
	size  int64
}

// Log is an open write-ahead log directory. All methods are safe for
// concurrent use; appends are serialized internally.
type Log struct {
	dir  string
	opts Options

	mu         sync.Mutex // append path: active file, segment list
	f          *os.File
	segs       []segment
	next       uint64
	dirty      bool
	timerArmed bool
	closed     bool
	notify     chan struct{} // closed on append; see NotifyAppend

	ckmu sync.Mutex // serializes WriteCheckpoint

	lastA   atomic.Uint64
	ckLSN   atomic.Uint64
	sinceCk atomic.Int64

	appends     atomic.Int64
	fsyncs      atomic.Int64
	fsyncMicros atomic.Int64
	checkpoints atomic.Int64

	errmu    sync.Mutex
	firstErr error
}

// Stats is a point-in-time view of the log, surfaced by /stats.
type Stats struct {
	// LastLSN is the highest assigned LSN (0 when nothing was ever logged).
	LastLSN uint64 `json:"lastLSN"`
	// CheckpointLSN is the LSN the latest checkpoint covers.
	CheckpointLSN uint64 `json:"checkpointLSN"`
	// Segments is the number of live segment files.
	Segments int `json:"segments"`
	// SegmentBytes is the total size of the live segments.
	SegmentBytes int64 `json:"segmentBytes"`
	// Appends counts records appended since open.
	Appends int64 `json:"appends"`
	// Checkpoints counts checkpoints written since open.
	Checkpoints int64 `json:"checkpoints"`
	// Fsync is the configured policy.
	Fsync string `json:"fsync"`
	// Fsyncs counts fsync calls on the append path since open.
	Fsyncs int64 `json:"fsyncs"`
	// FsyncMeanMicros is FsyncTotalMicros / Fsyncs (0 before the first
	// fsync); FsyncTotalMicros is the cumulative fsync latency.
	FsyncMeanMicros  float64 `json:"fsyncMeanMicros"`
	FsyncTotalMicros int64   `json:"-"`
}

func segName(start uint64) string { return fmt.Sprintf("%s%020d%s", segPrefix, start, segSuffix) }
func ckName(lsn uint64) string    { return fmt.Sprintf("%s%020d%s", ckPrefix, lsn, ckSuffix) }

// parseSeqName extracts the 20-digit sequence number from a segment or
// checkpoint filename, reporting ok=false for anything else.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != 20 {
		return 0, false
	}
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment files of dir sorted by start LSN.
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range ents {
		if start, ok := parseSeqName(e.Name(), segPrefix, segSuffix); ok {
			info, err := e.Info()
			if err != nil {
				return nil, err
			}
			segs = append(segs, segment{path: filepath.Join(dir, e.Name()), start: start, size: info.Size()})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	return segs, nil
}

// listCheckpoints returns the checkpoint LSNs of dir in ascending order.
func listCheckpoints(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var lsns []uint64
	for _, e := range ents {
		if lsn, ok := parseSeqName(e.Name(), ckPrefix, ckSuffix); ok {
			lsns = append(lsns, lsn)
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	return lsns, nil
}

// HasState reports whether dir contains any log segments or checkpoints,
// i.e. whether opening it recovers prior state rather than booting fresh.
func HasState(dir string) bool {
	segs, err := listSegments(dir)
	if err == nil && len(segs) > 0 {
		return true
	}
	cks, err := listCheckpoints(dir)
	return err == nil && len(cks) > 0
}

// syncDir fsyncs the directory entry so renames and creates survive a
// power failure.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Open opens (creating if necessary) the log in dir. Existing segments are
// scanned to find the last valid record; a torn tail in the final segment
// is truncated away, while a torn or corrupt non-final segment is an error
// (segment rolls sync, so a tear can only ever be at the very end).
func Open(dir string, opts Options) (*Log, error) {
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = defaultFsyncInterval
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	var last uint64
	for i := range segs {
		valid, torn, err := scanSegment(segs[i].path, func(rec Record) error {
			last = rec.LSN
			return nil
		})
		if err != nil {
			return nil, err
		}
		if torn {
			if i != len(segs)-1 {
				return nil, fmt.Errorf("wal: segment %s is truncated mid-stream but later segments exist", segs[i].path)
			}
			if err := os.Truncate(segs[i].path, valid); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			segs[i].size = valid
		}
	}
	cks, err := listCheckpoints(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	var ckLSN uint64
	if len(cks) > 0 {
		ckLSN = cks[len(cks)-1]
	}
	if ckLSN > last {
		// The checkpoint (synced via rename) outlived unsynced log tail —
		// possible under SyncOff/SyncInterval after power loss. The
		// checkpoint already covers those records.
		last = ckLSN
	}
	l := &Log{dir: dir, opts: opts, segs: segs, next: last + 1}
	l.lastA.Store(last)
	l.ckLSN.Store(ckLSN)
	if last > ckLSN {
		l.sinceCk.Store(int64(last - ckLSN))
	}
	if len(segs) > 0 {
		f, err := os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: open active segment: %w", err)
		}
		l.f = f
	} else if err := l.newSegmentLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

// newSegmentLocked creates a fresh active segment named by the next LSN.
// Callers hold l.mu (or have exclusive access during Open).
func (l *Log) newSegmentLocked() error {
	path := filepath.Join(l.dir, segName(l.next))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.f = f
	l.segs = append(l.segs, segment{path: path, start: l.next})
	return nil
}

// Append assigns the next LSN to rec, frames it and writes it to the
// active segment, honoring the fsync policy before returning. It returns
// the assigned LSN. After any append or sync failure the log is poisoned:
// the first error is retained (see Err) and every later Append fails fast,
// so an acknowledged-but-unlogged write can never slip through.
func (l *Log) Append(rec Record) (uint64, error) {
	body := make([]byte, bodyPrefixLen, bodyPrefixLen+64)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.errLocked(); err != nil {
		return 0, err
	}
	if l.closed {
		// Poison too: the write being acknowledged upstream was refused
		// here, so health must report the log as no longer accepting.
		err := errors.New("wal: append on closed log")
		l.failLocked(err)
		return 0, err
	}
	lsn := l.next
	binary.LittleEndian.PutUint64(body[0:8], lsn)
	body[8] = byte(rec.Kind)
	body, err := appendPayload(body, rec)
	if err != nil {
		return 0, err
	}
	frame := make([]byte, frameHeaderLen+len(body))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(body, castagnoli))
	copy(frame[frameHeaderLen:], body)

	active := &l.segs[len(l.segs)-1]
	if active.size > 0 && active.size+int64(len(frame)) > l.opts.SegmentBytes {
		// Roll: always sync and close the finished segment so tears are
		// confined to the final one.
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
		if err := l.f.Close(); err != nil {
			l.failLocked(err)
			return 0, err
		}
		if err := l.newSegmentLocked(); err != nil {
			l.failLocked(err)
			return 0, err
		}
		active = &l.segs[len(l.segs)-1]
	}
	if _, err := l.f.Write(frame); err != nil {
		l.failLocked(err)
		return 0, err
	}
	active.size += int64(len(frame))
	l.next = lsn + 1
	l.lastA.Store(lsn)
	l.appends.Add(1)
	l.sinceCk.Add(1)
	if l.notify != nil {
		close(l.notify)
		l.notify = nil
	}
	switch l.opts.Fsync {
	case SyncCommit:
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	case SyncInterval:
		l.dirty = true
		if !l.timerArmed {
			l.timerArmed = true
			time.AfterFunc(l.opts.FsyncInterval, l.flushTimer)
		}
	default:
		l.dirty = true
	}
	return lsn, nil
}

// flushTimer is the deferred sync of the SyncInterval policy.
func (l *Log) flushTimer() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.timerArmed = false
	if l.closed || !l.dirty || l.errLocked() != nil {
		return
	}
	_ = l.syncLocked() // failure is retained via failLocked
}

// syncLocked fsyncs the active segment, timing the call. Callers hold l.mu.
func (l *Log) syncLocked() error {
	t0 := time.Now()
	err := l.f.Sync()
	l.fsyncs.Add(1)
	l.fsyncMicros.Add(time.Since(t0).Microseconds())
	if err != nil {
		l.failLocked(err)
		return err
	}
	l.dirty = false
	return nil
}

// Sync forces outstanding appends to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	if err := l.errLocked(); err != nil {
		return err
	}
	return l.syncLocked()
}

// Close syncs and closes the active segment. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.notify != nil {
		// Wake blocked tailers; they observe no new LSN and re-wait (or
		// exit via their context), rather than sleeping into a dead log.
		close(l.notify)
		l.notify = nil
	}
	if l.errLocked() == nil {
		if err := l.syncLocked(); err != nil {
			l.f.Close()
			return err
		}
	}
	return l.f.Close()
}

// LastLSN returns the highest assigned LSN.
func (l *Log) LastLSN() uint64 { return l.lastA.Load() }

// CheckpointLSN returns the LSN covered by the latest checkpoint.
func (l *Log) CheckpointLSN() uint64 { return l.ckLSN.Load() }

// SinceCheckpoint returns the number of records appended past the latest
// checkpoint — the replay debt a crash would incur. Callers use it to
// trigger checkpoints every N writes.
func (l *Log) SinceCheckpoint() int64 { return l.sinceCk.Load() }

// failLocked retains the first unrecoverable error; the health endpoint
// surfaces it as a degraded state.
func (l *Log) failLocked(err error) {
	l.errmu.Lock()
	if l.firstErr == nil {
		l.firstErr = err
	}
	l.errmu.Unlock()
}

// errLocked returns the retained first error, if any.
func (l *Log) errLocked() error {
	l.errmu.Lock()
	defer l.errmu.Unlock()
	return l.firstErr
}

// Err returns the first append, sync or checkpoint error the log hit, or
// nil. A non-nil value means acknowledged durability can no longer be
// trusted and the process should be restarted to recover.
func (l *Log) Err() error {
	l.errmu.Lock()
	defer l.errmu.Unlock()
	return l.firstErr
}

// Stats returns a point-in-time view of the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	n := len(l.segs)
	var bytes int64
	for i := range l.segs {
		bytes += l.segs[i].size
	}
	l.mu.Unlock()
	st := Stats{
		LastLSN:          l.lastA.Load(),
		CheckpointLSN:    l.ckLSN.Load(),
		Segments:         n,
		SegmentBytes:     bytes,
		Appends:          l.appends.Load(),
		Checkpoints:      l.checkpoints.Load(),
		Fsync:            l.opts.Fsync.String(),
		Fsyncs:           l.fsyncs.Load(),
		FsyncTotalMicros: l.fsyncMicros.Load(),
	}
	if st.Fsyncs > 0 {
		st.FsyncMeanMicros = float64(st.FsyncTotalMicros) / float64(st.Fsyncs)
	}
	return st
}

// WriteCheckpoint durably writes a snapshot covering every record with LSN
// ≤ lsn, then prunes checkpoints beyond the newest two and every segment
// whose records all fall at or below the older retained checkpoint. The
// caller supplies save (normally store.DB.Save) and must guarantee the
// snapshot it writes contains the effect of every record ≤ lsn; records
// > lsn may leak in (replay is idempotent and in-order, so re-applying
// them converges), missing ones may not. The snapshot is written to a
// temporary file, synced and renamed, so a crash mid-checkpoint leaves the
// previous checkpoint intact.
func (l *Log) WriteCheckpoint(lsn uint64, save func(io.Writer) error) error {
	l.ckmu.Lock()
	defer l.ckmu.Unlock()
	if err := l.writeCheckpointFile(lsn, save); err != nil {
		l.failLocked(err)
		return err
	}
	// Monotone update: a concurrent caller could in principle checkpoint a
	// later LSN first.
	for {
		cur := l.ckLSN.Load()
		if lsn <= cur || l.ckLSN.CompareAndSwap(cur, lsn) {
			break
		}
	}
	l.sinceCk.Store(0)
	l.checkpoints.Add(1)
	return l.pruneLocked()
}

// writeCheckpointFile writes checkpoint lsn via tmp+rename.
func (l *Log) writeCheckpointFile(lsn uint64, save func(io.Writer) error) error {
	final := filepath.Join(l.dir, ckName(lsn))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	defer os.Remove(tmp) // no-op after successful rename
	hdr := make([]byte, ckHeaderLen)
	copy(hdr, ckMagic)
	hdr[4] = ckVersion
	binary.LittleEndian.PutUint64(hdr[5:13], lsn)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := save(f); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	return nil
}

// pruneLocked removes checkpoints beyond the newest keepCheckpoints and
// segments fully covered by the older retained checkpoint. Callers hold
// l.ckmu.
func (l *Log) pruneLocked() error {
	cks, err := listCheckpoints(l.dir)
	if err != nil {
		return fmt.Errorf("wal: prune: %w", err)
	}
	for len(cks) > keepCheckpoints {
		if err := os.Remove(filepath.Join(l.dir, ckName(cks[0]))); err != nil {
			return fmt.Errorf("wal: prune: %w", err)
		}
		cks = cks[1:]
	}
	var pruneLSN uint64
	if len(cks) > 0 {
		// The oldest retained checkpoint still needs its log suffix, so
		// only segments ending at or below IT are dead.
		pruneLSN = cks[0]
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.segs[:0]
	for i := range l.segs {
		// A segment's records end where the next segment starts; the
		// active (last) segment is never pruned.
		if i+1 < len(l.segs) && l.segs[i+1].start-1 <= pruneLSN {
			if err := os.Remove(l.segs[i].path); err != nil {
				rest := append(kept, l.segs[i:]...)
				l.segs = rest
				return fmt.Errorf("wal: prune: %w", err)
			}
			continue
		}
		kept = append(kept, l.segs[i])
	}
	l.segs = kept
	return nil
}

// segmentOpenHook, when non-nil, observes every segment file opened on the
// read path (full scans and first-LSN probes alike). Tests set it to prove
// the tail-read fast path of Records touches only the final segment.
var segmentOpenHook func(path string)

// scanSegment reads frames from path in order, invoking fn per valid
// record. It returns the byte offset after the last valid frame and
// whether the file ends in a torn (incomplete or checksum-failing) tail.
// A decode failure after a passing checksum is a real error, not a tear.
func scanSegment(path string, fn func(Record) error) (valid int64, torn bool, err error) {
	return scanSegmentAt(path, 0, fn)
}

// scanSegmentAt is scanSegment starting at byte offset off, which must be
// a frame boundary (0 or a valid offset returned by a previous scan). The
// replication tail uses it to resume the active segment without re-decoding
// the prefix it already delivered.
func scanSegmentAt(path string, off int64, fn func(Record) error) (valid int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return off, false, fmt.Errorf("wal: scan: %w", err)
	}
	defer f.Close()
	if segmentOpenHook != nil {
		segmentOpenHook(path)
	}
	if off > 0 {
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			return off, false, fmt.Errorf("wal: scan %s: %w", path, err)
		}
	}
	hdr := make([]byte, frameHeaderLen)
	body := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			if errors.Is(err, io.EOF) {
				return off, false, nil // clean end
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return off, true, nil // partial header
			}
			return off, false, fmt.Errorf("wal: scan %s: %w", path, err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n < bodyPrefixLen || n > maxRecordBytes {
			return off, true, nil // garbage length ⇒ torn
		}
		if int64(cap(body)) < int64(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(f, body); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return off, true, nil // partial body
			}
			return off, false, fmt.Errorf("wal: scan %s: %w", path, err)
		}
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return off, true, nil // checksum mismatch ⇒ torn
		}
		rec, err := decodePayload(Kind(body[8]), body[bodyPrefixLen:])
		if err != nil {
			return off, false, fmt.Errorf("wal: scan %s at offset %d: %w", path, off, err)
		}
		rec.LSN = binary.LittleEndian.Uint64(body[0:8])
		if err := fn(rec); err != nil {
			return off, false, err
		}
		off += int64(frameHeaderLen) + int64(n)
	}
}

const (
	ckVersion   = 1
	ckHeaderLen = 13
)

var ckMagic = []byte("BWCK")
