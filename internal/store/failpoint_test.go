package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incdb/internal/relation"
)

// recoverOne recovers the single session of dir and returns it.
func recoverOne(t *testing.T, dir string) *Recovered {
	t.Helper()
	s := openStore(t, dir)
	recs, err := s.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(recs))
	}
	return recs[0]
}

// TestSnapshotFailureKeepsWALTail: an injected fsync or rename failure
// during snapshot compaction must leave the WAL untouched — the snapshot
// attempt fails, but no acknowledged record is lost, the log keeps
// accepting appends, and a retry succeeds once the fault clears.
func TestSnapshotFailureKeepsWALTail(t *testing.T) {
	for _, site := range []string{FpSnapshotSync, FpSnapshotRename, FpSnapshotWrite} {
		t.Run(site, func(t *testing.T) {
			defer ClearFailpoints()
			dir := t.TempDir()
			s := openStore(t, dir)
			l, err := s.Session("main")
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			db := relation.NewDatabase()
			for _, ld := range loads[:3] {
				appendLoad(t, l, db, ld.op, ld.data)
			}
			walBefore := l.WalBytes()

			SetFailpoint(site, FailRule{Count: 1})
			snap, err := TakeSnapshot("main", db, l.Seq(), nil)
			if err != nil {
				t.Fatalf("take snapshot: %v", err)
			}
			if err := l.InstallSnapshot(snap); !errors.Is(err, ErrInjected) {
				t.Fatalf("install with %s armed: err = %v, want injected", site, err)
			}
			if hits := FailpointHits(site); hits != 1 {
				t.Fatalf("failpoint %s fired %d times, want 1", site, hits)
			}
			if l.WalBytes() != walBefore {
				t.Fatalf("failed snapshot changed the wal: %d bytes, had %d", l.WalBytes(), walBefore)
			}
			if l.SnapshotSeq() != 0 {
				t.Fatalf("failed snapshot advanced snapSeq to %d", l.SnapshotSeq())
			}

			// The log is not fail-stopped: appends still commit...
			for _, ld := range loads[3:] {
				appendLoad(t, l, db, ld.op, ld.data)
			}
			// ...and with the fault cleared the retried snapshot compacts.
			ClearFailpoints()
			snap, err = TakeSnapshot("main", db, l.Seq(), nil)
			if err != nil {
				t.Fatalf("retake snapshot: %v", err)
			}
			if err := l.InstallSnapshot(snap); err != nil {
				t.Fatalf("retried install: %v", err)
			}
			if l.WalBytes() != int64(len(walMagic)) {
				t.Fatalf("retried snapshot did not compact: %d bytes", l.WalBytes())
			}
			s.Close()
			assertRecovered(t, dir, replayTo(t, len(loads)))
		})
	}
}

// TestWALFailureFailStops: an injected group-commit write or fsync error
// fail-stops the log — later appends are refused, the record was never
// acknowledged. A failed write leaves nothing on disk, so recovery drops
// it; a failed fsync after a successful write leaves the record intact on
// disk, and replay keeping it is harmless (an unacknowledged record may
// or may not survive a crash — only acknowledged ones must).
func TestWALFailureFailStops(t *testing.T) {
	for _, tc := range []struct {
		site    string
		survive int // loads recovery must see
	}{
		{FpWALWrite, 1},
		{FpWALSync, 2},
	} {
		t.Run(tc.site, func(t *testing.T) {
			defer ClearFailpoints()
			dir := t.TempDir()
			s := openStore(t, dir)
			l, err := s.Session("main")
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			db := relation.NewDatabase()
			appendLoad(t, l, db, loads[0].op, loads[0].data)

			SetFailpoint(tc.site, FailRule{Count: 1})
			// Apply-then-append the way the server commits, so the logged
			// version vector is consistent if the frame reaches the disk.
			db2 := replayTo(t, 2)
			if _, err := l.Append(OpAppend, loads[1].data, db2.Versions()); !errors.Is(err, ErrInjected) {
				t.Fatalf("append with %s armed: err = %v, want injected", tc.site, err)
			}
			if !l.Stats().Failed {
				t.Fatalf("log did not fail-stop after an injected %s error", tc.site)
			}
			if _, err := l.Append(OpAppend, loads[1].data, db2.Versions()); err == nil ||
				!strings.Contains(err.Error(), "refusing further appends") {
				t.Fatalf("fail-stopped log accepted an append: %v", err)
			}
			s.Close()
			assertRecovered(t, dir, replayTo(t, tc.survive))
		})
	}
}

// TestTornWALWriteRecovers: a write torn mid-frame by an injected fault
// (the primary dying mid-append) leaves a suffix that replay truncates —
// the session recovers to the last intact record and the reopened log
// accepts further appends on the clean boundary.
func TestTornWALWriteRecovers(t *testing.T) {
	defer ClearFailpoints()
	dir := t.TempDir()
	s := openStore(t, dir)
	l, err := s.Session("main")
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	db := relation.NewDatabase()
	appendLoad(t, l, db, loads[0].op, loads[0].data)

	SetFailpoint(FpWALWrite, FailRule{Count: 1, TornBytes: 11})
	if _, err := l.Append(OpAppend, loads[1].data, nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn append: err = %v, want injected", err)
	}
	s.Close()

	// The file really holds a torn frame beyond the intact prefix.
	wal, err := os.ReadFile(filepath.Join(dir, "sessions", "main", walFile))
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	offs := frameOffsets(t, wal[:len(wal)-11])
	if len(offs) != 1 || len(wal) <= offs[len(offs)-1]+8 {
		t.Fatalf("expected one intact frame plus a torn tail, got offsets %v in %d bytes", offs, len(wal))
	}

	rec := assertRecovered(t, dir, replayTo(t, 1))
	// The truncation left a clean boundary: appending works and a second
	// recovery sees both records.
	db2 := replayTo(t, 1)
	appendLoad(t, rec.Log, db2, loads[1].op, loads[1].data)
	rec.Log.Close()
	assertRecovered(t, dir, replayTo(t, 2))
}

// TestV1WALRefused: a WAL under any magic but the current one — here the
// retired v1 header — fails recovery loudly and is left byte for byte as it
// was found, never wiped.
func TestV1WALRefused(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	l, err := s.Session("main")
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	db := relation.NewDatabase()
	for _, ld := range loads[:2] {
		appendLoad(t, l, db, ld.op, ld.data)
	}
	s.Close()

	path := filepath.Join(dir, "sessions", "main", walFile)
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	if _, err := f.WriteAt([]byte("incdbwl1"), 0); err != nil {
		t.Fatalf("rewrite magic: %v", err)
	}
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}

	if _, err := openStore(t, dir).Recover(); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("recovery of a v1 wal: err = %v, want a bad-magic refusal", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("refused wal was modified: %d bytes before, %d after", len(before), len(after))
	}
}

// TestEpochRoundTrip: the epoch is monotonic on a live log, stamps every
// record buffered after it rises, survives recovery (from records and
// from snapshots), and fences stale mirrored records.
func TestEpochRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	l, err := s.Session("main")
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	db := relation.NewDatabase()
	appendLoad(t, l, db, loads[0].op, loads[0].data)

	l.SetEpoch(3)
	l.SetEpoch(2) // lower: ignored
	if got := l.Epoch(); got != 3 {
		t.Fatalf("epoch = %d after SetEpoch(3); SetEpoch(2), want 3", got)
	}
	if _, err := l.Append(OpEpoch, "", db.Versions()); err != nil {
		t.Fatalf("epoch record: %v", err)
	}
	appendLoad(t, l, db, loads[1].op, loads[1].data)

	// A mirrored record from an older epoch is a fenced-off stale primary.
	stale := &Record{Seq: l.Seq() + 1, Epoch: 1, Op: OpAppend, Data: "row R zz 0\n", Versions: db.Versions()}
	if err := l.BufferRecord(stale); err == nil || !strings.Contains(err.Error(), "stale epoch") {
		t.Fatalf("stale-epoch mirror: err = %v, want stale epoch rejection", err)
	}
	s.Close()

	rec := assertRecovered(t, dir, replayTo(t, 2))
	if rec.Epoch != 3 {
		t.Fatalf("recovered epoch %d from records, want 3", rec.Epoch)
	}
	if rec.Log.Epoch() != 3 {
		t.Fatalf("reopened log stamps epoch %d, want 3", rec.Log.Epoch())
	}

	// Epoch survives compaction: after a snapshot at epoch 3 the WAL holds
	// no records, so recovery must read it from the snapshot.
	snap, err := TakeSnapshot("main", rec.DB, rec.Log.Seq(), nil)
	if err != nil {
		t.Fatalf("take snapshot: %v", err)
	}
	snap.Epoch = rec.Log.Epoch()
	if err := rec.Log.InstallSnapshot(snap); err != nil {
		t.Fatalf("install snapshot: %v", err)
	}
	rec.Log.Close()
	rec2 := assertRecovered(t, dir, replayTo(t, 2))
	if rec2.Epoch != 3 {
		t.Fatalf("recovered epoch %d from snapshot, want 3", rec2.Epoch)
	}
	rec2.Log.Close()
}
