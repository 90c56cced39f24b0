package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

const (
	walFile      = "wal.log"
	snapshotFile = "snapshot.idb"

	// walMagic opens every WAL file; a header shorter than this is a torn
	// first write and resets the file, a different one — a foreign file, or
	// a log in another version of the format — fails recovery rather than
	// being silently wiped.
	walMagic = "incdbwl2"

	// maxRecordBytes bounds one record's payload on replay: a longer length
	// prefix is treated as corruption (the server caps request bodies well
	// below this).
	maxRecordBytes = 256 << 20
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// Op is the kind of load mutation a WAL record carries.
type Op string

const (
	// OpAppend parses the payload into the live database.
	OpAppend Op = "append"
	// OpReplace replaces the database with a fresh parse of the payload.
	OpReplace Op = "replace"
	// OpRestore replaces the database with a decoded snapshot payload
	// (the snapshot-bootstrap load path).
	OpRestore Op = "restore"
	// OpEpoch marks a promotion: the record mutates nothing (Data is
	// empty) but raises the epoch every later record is written under.
	// Shipping the bump as an ordinary WAL record makes it durable and
	// replicated by the same machinery as any load.
	OpEpoch Op = "epoch"
)

// Record is one acknowledged load mutation: the raparse (or snapshot)
// payload and the version vector the database reported after applying it.
// Replay re-applies Data and cross-checks Versions. The same frames travel
// over the replication stream (GET /v1/sessions/{name}/wal), so a follower
// applies exactly what the primary logged. Epoch is the replication epoch
// the record was written under; it never decreases within a log, and a
// server that observes a record from a higher epoch than its own knows it
// has been superseded.
type Record struct {
	Seq      uint64            `json:"seq"`
	Epoch    uint64            `json:"epoch,omitempty"`
	Op       Op                `json:"op"`
	Data     string            `json:"data"`
	Versions map[string]uint64 `json:"versions"`
	// Trace is the W3C traceparent of the span that committed this record
	// on the primary, "" when the request was untraced. It travels in the
	// frame (and so over the replication stream) so a replica's apply span
	// can link back to the originating write. Like Epoch, it is an
	// additive JSON field: records without it decode with Trace == "".
	Trace string `json:"trace,omitempty"`
}

// SessionLog is the durable state of one session: its write-ahead log file
// and snapshot slot.
//
// Commit is split in two so appends can group-commit: BufferTrace frames a
// record and assigns it the next sequence number (cheap, no I/O — the
// caller serializes BufferTrace/BufferRecord calls and InstallSnapshot with
// its own commit mutex so log order is apply order), and Sync blocks until
// the record is on disk. Records buffered while an fsync is in flight ride
// the next one together: durable load throughput scales with concurrency
// instead of fsync latency. Append is BufferTrace+Sync for sequential
// callers.
// Stats, Seq, DurableSeq and WalBytes are safe to call concurrently.
type SessionLog struct {
	name string
	dir  string
	f    *os.File

	// mu guards the pending batch and sequence assignment.
	mu         sync.Mutex
	buf        []byte // framed records awaiting write+fsync
	bufRecords int64
	seqLocked  uint64 // last assigned sequence number (mirrored in seq)

	// syncMu is held by the group-commit flush leader across write+fsync
	// (and by InstallSnapshot across the truncation). Syncs queue on it;
	// whoever acquires it next flushes everything buffered meanwhile in a
	// single fsync.
	syncMu sync.Mutex

	seq     atomic.Uint64 // last assigned (buffered) record
	durable atomic.Uint64 // last fsync'd record
	snapSeq atomic.Uint64 // last record covered by the on-disk snapshot
	walGen  atomic.Uint64 // bumped on every truncation (tailers re-base)
	epoch   atomic.Uint64 // replication epoch stamped on new records

	walBytes   atomic.Int64
	walRecords atomic.Int64
	syncs      atomic.Int64 // fsyncs issued (records/syncs = group-commit ratio)
	lastSync   atomic.Int64 // unix nanos of the last fsync'd append
	lastSnap   atomic.Int64 // unix nanos of the last snapshot install

	// observer, when non-nil, receives flush/snapshot latency observations
	// and is told about each traced record a group-commit flush made
	// durable (shared across the store's sessions; set once before first
	// use). pendingTrace holds the traceparents of buffered-but-not-yet-
	// flushed records, guarded by mu alongside the batch they describe.
	observer     *Observer
	pendingTrace []string

	// noteMu/note broadcast "the durable state changed" to WAL tailers:
	// note is closed and replaced after every flush and every truncation.
	noteMu sync.Mutex
	note   chan struct{}

	// failed latches after a write or fsync error: the file may hold torn
	// bytes and — because the in-memory apply happens before the append —
	// the live database has diverged from the log, so accepting further
	// records would make replay reconstruct a different history than the
	// one acknowledged. The log fail-stops instead: every later buffer
	// errors (the server keeps refusing this session's loads with 500)
	// and a restart recovers to the last durable record.
	failed atomic.Bool
}

// openSessionLogAt opens (creating if needed) the session directory and
// its WAL for appending with known sequence state; replayWAL must already
// have run (it truncates any torn tail).
func openSessionLogAt(name, dir string, seq, snapSeq, epoch uint64, o *Observer) (*SessionLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	syncDir(filepath.Dir(dir))
	path := filepath.Join(dir, walFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	l := &SessionLog{name: name, dir: dir, f: f, note: make(chan struct{}), observer: o}
	if st.Size() == 0 {
		if _, err := f.WriteString(walMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
		l.walBytes.Store(int64(len(walMagic)))
	} else {
		l.walBytes.Store(st.Size())
	}
	l.seqLocked = seq
	l.seq.Store(seq)
	l.durable.Store(seq)
	l.snapSeq.Store(snapSeq)
	l.epoch.Store(epoch)
	return l, nil
}

// Name returns the session name.
func (l *SessionLog) Name() string { return l.name }

// Seq returns the sequence number of the last assigned (buffered or
// replayed) record — the apply-order position of the session.
func (l *SessionLog) Seq() uint64 { return l.seq.Load() }

// DurableSeq returns the sequence number of the last fsync'd record.
func (l *SessionLog) DurableSeq() uint64 { return l.durable.Load() }

// SnapshotSeq returns the last sequence number covered by the on-disk
// snapshot; WAL records at or below it have been compacted away.
func (l *SessionLog) SnapshotSeq() uint64 { return l.snapSeq.Load() }

// Epoch returns the replication epoch new records are stamped with.
func (l *SessionLog) Epoch() uint64 { return l.epoch.Load() }

// SetEpoch raises the epoch stamped on subsequent records. The epoch is
// monotonic: a lower value is ignored. Durability of the bump comes from
// the next record written under it (the server commits an OpEpoch record
// when it promotes).
func (l *SessionLog) SetEpoch(epoch uint64) {
	for {
		cur := l.epoch.Load()
		if epoch <= cur || l.epoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// WalBytes returns the current WAL file size.
func (l *SessionLog) WalBytes() int64 { return l.walBytes.Load() }

// encodeFrame renders one record in the WAL wire framing: a 4-byte
// big-endian payload length, a CRC32-C of the payload, then the JSON
// payload. The same frames travel over the replication stream.
func encodeFrame(rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	buf := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, walCRC))
	copy(buf[8:], payload)
	return buf, nil
}

// readFrame decodes one frame from r: the only decoder of encodeFrame's
// framing. It returns the frame as read (header included, ready to relay
// verbatim) and its record. io.EOF means r ended cleanly before a frame
// began; a frame cut short after its first byte wraps io.ErrUnexpectedEOF,
// so no caller can take a torn frame for a clean end. The buffer is sized
// from the length prefix up to 64 KiB, with the headroom ReadFrom reads
// into, so a frame of that size allocates it once; beyond that it grows as
// payload bytes arrive, so a corrupt length prefix costs the bytes actually
// present plus at most 64 KiB, not the length it claims.
func readFrame(r io.Reader) ([]byte, *Record, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, nil, err // clean end
		}
		return nil, nil, fmt.Errorf("store: torn frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n == 0 || n > maxRecordBytes {
		return nil, nil, fmt.Errorf("store: bad frame length %d", n)
	}
	var b bytes.Buffer
	b.Grow(8 + min(int(n), 64<<10) + bytes.MinRead)
	b.Write(hdr[:])
	if _, err := io.CopyN(&b, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, nil, fmt.Errorf("store: torn frame payload: %w", err)
	}
	frame := b.Bytes()
	if crc32.Checksum(frame[8:], walCRC) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, nil, fmt.Errorf("store: frame checksum mismatch")
	}
	var rec Record
	if err := json.Unmarshal(frame[8:], &rec); err != nil {
		return nil, nil, fmt.Errorf("store: frame decode: %w", err)
	}
	return frame, &rec, nil
}

// ReadFrame decodes one framed record from a stream (the body of a WAL
// tailing response). io.EOF marks a cleanly closed stream; any torn or
// corrupt frame is an error (over TCP, framing damage means a broken
// stream, not a crash artifact to skip).
func ReadFrame(r io.Reader) (*Record, error) {
	_, rec, err := readFrame(r)
	return rec, err
}

// BufferTrace frames a new record carrying the committing request's
// traceparent, assigns it the next sequence number and queues it for the
// next group fsync. The record ships the traceparent to replicas, and the
// flush leader reports it to the log's Observer once the record is
// durable. The caller must serialize BufferTrace, BufferRecord and
// InstallSnapshot (the server's per-session commit mutex spans the
// in-memory apply and the BufferTrace, so log order is apply order); Sync
// may then be called concurrently.
func (l *SessionLog) BufferTrace(op Op, data string, versions map[string]uint64, trace string) (uint64, error) {
	rec := Record{Op: op, Data: data, Versions: versions, Trace: trace}
	if err := l.buffer(&rec, false); err != nil {
		return 0, err
	}
	return rec.Seq, nil
}

// BufferRecord queues an existing record verbatim — the replica mirror
// path: a follower logs exactly the records the primary shipped, keeping
// the primary's sequence numbers, so its own recovery resumes tailing from
// the right position. The record must directly follow the log.
func (l *SessionLog) BufferRecord(rec *Record) error { return l.buffer(rec, true) }

// buffer is the one path a record takes into the pending batch. A
// fail-stopped log refuses first. A new record is stamped with the next
// sequence number and the log's epoch; a mirrored one carries both, and
// must follow the log at an epoch the log has not moved past.
func (l *SessionLog) buffer(rec *Record, mirrored bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed.Load() {
		return fmt.Errorf("store: session %q wal failed earlier; refusing further appends (restart to recover)", l.name)
	}
	if !mirrored {
		rec.Seq, rec.Epoch = l.seqLocked+1, l.epoch.Load()
	} else if rec.Seq != l.seqLocked+1 {
		return fmt.Errorf("store: session %q: mirrored record seq %d does not follow %d", l.name, rec.Seq, l.seqLocked)
	} else if e := l.epoch.Load(); rec.Epoch < e {
		// The primary this record came from writes at an epoch this log has
		// already moved past: a fenced-off stale primary. Mirroring it would
		// interleave two histories.
		return fmt.Errorf("store: session %q: mirrored record seq %d has stale epoch %d (log is at epoch %d)",
			l.name, rec.Seq, rec.Epoch, e)
	}
	frame, err := encodeFrame(rec)
	if err != nil {
		return err
	}
	l.buf = append(l.buf, frame...)
	l.bufRecords++
	l.seqLocked = rec.Seq
	l.seq.Store(rec.Seq)
	l.SetEpoch(rec.Epoch)
	if rec.Trace != "" && l.observer != nil && l.observer.Flush != nil {
		l.pendingTrace = append(l.pendingTrace, rec.Trace)
	}
	return nil
}

// Sync blocks until the record with the given sequence number is durable.
// Group commit lives here: whoever wins syncMu flushes everything buffered
// — its own record and every record buffered while the previous fsync was
// in flight — in one write+fsync. Everyone else parks on the durable-state
// broadcast channel instead of queueing on the mutex, so a finished flush
// releases the whole batch of waiters with one channel close rather than a
// convoy of sequential mutex handoffs.
//
// No wake-up can be lost, by construction: every holder of syncMu
// broadcasts after it has released it (release), and a waiter parks only
// after it has subscribed and then seen the lock still held — so that
// holder's broadcast is still to come and closes the waiter's channel. A
// waiter whose record missed the holder's batch wakes to a free lock and
// flushes it itself.
func (l *SessionLog) Sync(seq uint64) error {
	var ch <-chan struct{} // subscription taken since the lock was last seen held
	for l.durable.Load() < seq {
		if l.failed.Load() {
			return fmt.Errorf("store: session %q wal failed earlier; record %d is not durable (restart to recover)", l.name, seq)
		}
		if l.syncMu.TryLock() {
			var err error
			if l.durable.Load() < seq {
				err = l.flush()
			}
			fpPoint(FpWALFlushed)
			l.release()
			if err != nil {
				return err
			}
			ch = nil
			continue
		}
		// A flush is in flight. Subscribe first, then look again.
		if ch == nil {
			ch = l.changed()
			continue
		}
		fpPoint(FpWALPark)
		<-ch
		ch = nil
	}
	return nil
}

// release hands syncMu on and then wakes everyone waiting on the durable
// state — Sync waiters and WAL tailers. The order is what Sync's argument
// rests on: a waiter that finds the lock held after subscribing is woken by
// this broadcast, one that finds it free takes it.
func (l *SessionLog) release() {
	l.syncMu.Unlock()
	l.notify()
}

// flush writes and fsyncs everything buffered. Caller holds syncMu.
func (l *SessionLog) flush() error {
	l.mu.Lock()
	buf, n, end := l.buf, l.bufRecords, l.seqLocked
	traced := l.pendingTrace
	l.buf, l.bufRecords, l.pendingTrace = nil, 0, nil
	l.mu.Unlock()
	if len(buf) == 0 {
		return nil
	}
	start := time.Now()
	if _, err := fpWrite(FpWALWrite, l.f, buf); err != nil {
		l.failed.Store(true)
		return fmt.Errorf("store: wal append: %w", err)
	}
	preSync := time.Now()
	if err := fpSync(FpWALSync, l.f); err != nil {
		l.failed.Store(true)
		return fmt.Errorf("store: wal sync: %w", err)
	}
	if o := l.observer; o != nil {
		d := time.Since(preSync)
		observe(o.AppendSeconds, time.Since(start).Seconds())
		observe(o.FsyncSeconds, d.Seconds())
		observe(o.RecordsPerFsync, float64(n))
		observe(o.FlushBytes, float64(len(buf)))
		for _, tp := range traced {
			o.Flush(tp, int(n), len(buf), preSync, d)
		}
	}
	l.walBytes.Add(int64(len(buf)))
	l.walRecords.Add(n)
	l.syncs.Add(1)
	l.lastSync.Store(time.Now().UnixNano())
	l.durable.Store(end)
	return nil
}

// Append frames, writes and fsyncs one untraced load record, assigning it
// the next sequence number: BufferTrace followed by Sync. It returns only
// after the record is durable — the server acknowledges the mutation to the
// client after this returns. Concurrent Appends are safe and group-commit,
// but their relative log order is then arbitrary; callers who apply state
// in-memory first must serialize BufferTrace themselves.
func (l *SessionLog) Append(op Op, data string, versions map[string]uint64) (uint64, error) {
	seq, err := l.BufferTrace(op, data, versions, "")
	if err != nil {
		return 0, err
	}
	return seq, l.Sync(seq)
}

// notify wakes everyone waiting for the durable state to change.
func (l *SessionLog) notify() {
	l.noteMu.Lock()
	close(l.note)
	l.note = make(chan struct{})
	l.noteMu.Unlock()
}

// changed returns a channel closed at the next durable-state change.
func (l *SessionLog) changed() <-chan struct{} {
	l.noteMu.Lock()
	ch := l.note
	l.noteMu.Unlock()
	return ch
}

// InstallSnapshot makes snap the session's durable snapshot and compacts
// the WAL it covers: pending records are flushed first (nothing buffered
// may be lost to the truncation), the snapshot is written to a temporary
// file, fsync'd and atomically renamed over the previous one, then the log
// is truncated back to its header. A crash between the rename and the
// truncation leaves covered records in the log; replay skips them by
// sequence number. On a replica installing a bootstrap snapshot from its
// primary, snap.Seq may be ahead of the local log — the sequence state
// jumps forward so mirroring resumes from the snapshot. The caller
// serializes InstallSnapshot with BufferTrace/BufferRecord.
func (l *SessionLog) InstallSnapshot(snap *Snapshot) error {
	if l.failed.Load() {
		// A fail-stopped log means memory and disk have diverged; a
		// snapshot here would quietly promote unacknowledged state.
		return fmt.Errorf("store: session %q wal failed earlier; refusing snapshot (restart to recover)", l.name)
	}
	l.syncMu.Lock()
	defer l.release()
	if o := l.observer; o != nil {
		start := time.Now()
		defer func() { observe(o.SnapshotSeconds, time.Since(start).Seconds()) }()
	}
	if err := l.flush(); err != nil {
		return err
	}
	tmp := filepath.Join(l.dir, snapshotFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := func() error {
		if err := fpErr(FpSnapshotWrite); err != nil {
			return err
		}
		return snap.EncodeTo(f)
	}(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := fpSync(FpSnapshotSync, f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := fpRename(FpSnapshotRename, tmp, filepath.Join(l.dir, snapshotFile)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: snapshot: %w", err)
	}
	syncDir(l.dir)
	// The snapshot is durable; every record it covers is dead weight now.
	if err := fpTruncate(FpWALTruncate, l.f, int64(len(walMagic))); err != nil {
		return fmt.Errorf("store: wal compact: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("store: wal compact: %w", err)
	}
	l.walBytes.Store(int64(len(walMagic)))
	l.walRecords.Store(0)
	l.snapSeq.Store(snap.Seq)
	// The truncated log holds zero records, so the sequence state IS the
	// snapshot's — exactly where it already was for a primary compaction
	// (flush ran under syncMu and the caller's commit mutex excludes new
	// buffers), and a deliberate jump (either direction) for a replica
	// installing a bootstrap snapshot from its primary.
	l.mu.Lock()
	l.seqLocked = snap.Seq
	l.seq.Store(snap.Seq)
	l.mu.Unlock()
	l.durable.Store(snap.Seq)
	l.SetEpoch(snap.Epoch)
	l.lastSnap.Store(time.Now().UnixNano())
	l.walGen.Add(1)
	return nil
}

// Durability is the status snapshot of one session's durable state, as
// reported by /v1/status.
type Durability struct {
	WalBytes    int64  `json:"wal_bytes"`
	WalRecords  int64  `json:"wal_records"`
	Seq         uint64 `json:"seq"`
	DurableSeq  uint64 `json:"durable_seq"`
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Epoch is the replication epoch new records are stamped with; it rises
	// when this session's server is promoted (or follows a promoted one).
	Epoch uint64 `json:"epoch,omitempty"`
	// Syncs counts fsyncs issued; WalRecords/Syncs > 1 means group commit
	// batched concurrent appends into shared fsyncs.
	Syncs        int64  `json:"syncs"`
	LastSnapshot string `json:"last_snapshot,omitempty"`
	LastSync     string `json:"last_sync,omitempty"`
	// Failed reports a fail-stopped log (a write or fsync error): the
	// session refuses mutations until the server restarts and recovers.
	Failed bool `json:"failed,omitempty"`
}

// Stats returns the durability status; safe concurrently with Append and
// InstallSnapshot.
func (l *SessionLog) Stats() Durability {
	d := Durability{
		WalBytes:    l.walBytes.Load(),
		WalRecords:  l.walRecords.Load(),
		Seq:         l.seq.Load(),
		DurableSeq:  l.durable.Load(),
		SnapshotSeq: l.snapSeq.Load(),
		Epoch:       l.epoch.Load(),
		Syncs:       l.syncs.Load(),
		Failed:      l.failed.Load(),
	}
	if ns := l.lastSnap.Load(); ns != 0 {
		d.LastSnapshot = time.Unix(0, ns).UTC().Format(time.RFC3339)
	}
	if ns := l.lastSync.Load(); ns != 0 {
		d.LastSync = time.Unix(0, ns).UTC().Format(time.RFC3339)
	}
	return d
}

// Close closes the WAL file.
func (l *SessionLog) Close() error { return l.f.Close() }

// replayWAL reads every intact record of a WAL file, in order. Anything
// after the last intact record — a length or checksum mismatch, a short
// read, a non-monotonic sequence number: the signature of a write torn by
// a crash — is discarded and truncated from the file so the next append
// starts at a clean boundary. A missing file is an empty log.
func replayWAL(path string) ([]Record, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()

	header := make([]byte, len(walMagic))
	if _, err := io.ReadFull(f, header); err != nil {
		// Shorter than the magic: a torn very first write. Reset the file.
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, truncateWAL(path, 0)
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	if string(header) != walMagic {
		return nil, fmt.Errorf("store: %s is not an incdb WAL (bad magic)", path)
	}

	var out []Record
	good := int64(len(walMagic))
	var lastSeq, lastEpoch uint64
	for {
		frame, rec, err := readFrame(f)
		if err == io.EOF {
			return out, nil // clean end
		}
		if err != nil || rec.Seq <= lastSeq || rec.Epoch < lastEpoch {
			// A torn or corrupt frame, or a sequence number that does not
			// rise or an epoch that falls: the intact prefix ends here.
			break
		}
		lastSeq, lastEpoch = rec.Seq, rec.Epoch
		out = append(out, *rec)
		good += int64(len(frame))
	}
	return out, truncateWAL(path, good)
}

// truncateWAL drops the torn tail (or resets a torn header when good == 0,
// rewriting the magic).
func truncateWAL(path string, good int64) error {
	if err := os.Truncate(path, good); err != nil {
		return fmt.Errorf("store: truncate torn wal: %w", err)
	}
	if good == 0 {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		defer f.Close()
		if _, err := f.WriteString(walMagic); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		return f.Sync()
	}
	return nil
}

// syncDir fsyncs a directory so a just-created or just-renamed entry is
// durable; best-effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
