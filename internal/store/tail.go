package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// ErrWALGap reports that the requested position was compacted away: the
// log's snapshot has advanced past it, so the records between the
// position and the snapshot no longer exist in the WAL. A follower that
// sees it must re-bootstrap from a snapshot.
var ErrWALGap = errors.New("store: wal position compacted away (re-bootstrap from a snapshot)")

// errFramePending is the internal "no complete frame at this offset yet"
// signal: the flusher is mid-write, or a compaction raced us. The tailer
// waits for the next durable-state notification and retries.
var errFramePending = errors.New("store: frame pending")

// Tail is a live iterator over a session's durable WAL records, feeding
// the replication stream. It reads through its own file handle at its own
// offset, so it never interferes with the appender, and it only surfaces
// records the log has fsync'd — a follower can never get ahead of the
// primary's durability. Next blocks until the next record arrives; a
// compaction that removes records the tail has not yet delivered ends it
// with ErrWALGap.
type Tail struct {
	log  *SessionLog
	f    *os.File
	off  int64
	last uint64 // last sequence number returned (or the starting position)
	gen  uint64
}

// TailFrom opens a tail over the records with sequence numbers strictly
// greater than from. Returns ErrWALGap when records past from are already
// compacted into the snapshot.
func (l *SessionLog) TailFrom(from uint64) (*Tail, error) {
	// Record the epoch before checking snapSeq: if a compaction lands in
	// between, Next sees the epoch change and re-checks.
	gen := l.walGen.Load()
	if from < l.snapSeq.Load() {
		return nil, ErrWALGap
	}
	f, err := os.Open(filepath.Join(l.dir, walFile))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Tail{log: l, f: f, off: int64(len(walMagic)), last: from, gen: gen}, nil
}

// Next returns the next durable record, both decoded and in its wire
// framing (ready to relay verbatim to a follower). It blocks until a
// record is available, ctx is done, or the log compacts past the tail
// (ErrWALGap).
func (t *Tail) Next(ctx context.Context) ([]byte, *Record, error) {
	for {
		if e := t.log.walGen.Load(); e != t.gen {
			// The log was truncated under us. If we had delivered
			// everything the snapshot covers, the new file simply continues
			// where we were — re-base to its start. Otherwise records we
			// still owe the caller are gone.
			if t.last < t.log.snapSeq.Load() {
				return nil, nil, ErrWALGap
			}
			t.gen = e
			t.off = int64(len(walMagic))
		}
		// Subscribe before inspecting the durable position: any change
		// after this closes ch, so the select below cannot miss it.
		ch := t.log.changed()
		if t.log.durable.Load() > t.last {
			frame, rec, err := t.readFrame()
			if err == nil {
				if rec.Seq > t.last {
					t.last = rec.Seq
					return frame, rec, nil
				}
				continue // skipping the already-delivered prefix
			}
			if err != errFramePending {
				return nil, nil, err
			}
			// Incomplete bytes at our offset despite newer durable records:
			// we raced a compaction (next iteration re-bases) or a write in
			// flight; wait for the next notification.
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// readFrame decodes the frame at the current offset, advancing past it on
// success. Incomplete or implausible bytes yield errFramePending — the
// caller resolves whether that means "wait" or "gap".
func (t *Tail) readFrame() ([]byte, *Record, error) {
	frame, rec, err := readFrame(io.NewSectionReader(t.f, t.off, math.MaxInt64))
	if err != nil {
		return nil, nil, errFramePending
	}
	t.off += int64(len(frame))
	return frame, rec, nil
}

// Close releases the tail's file handle.
func (t *Tail) Close() error { return t.f.Close() }
