package store

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incdb/internal/raparse"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// appendLoad applies a load to db and logs it, the way the server commits:
// mutate first, then append the payload with the resulting version vector.
func appendLoad(t *testing.T, l *SessionLog, db *relation.Database, op Op, data string) {
	t.Helper()
	switch op {
	case OpAppend:
		if err := raparse.ParseDatabaseInto(strings.NewReader(data), db); err != nil {
			t.Fatalf("apply: %v", err)
		}
	case OpReplace:
		fresh, err := raparse.ParseDatabase(strings.NewReader(data))
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		*db = *fresh
	}
	if _, err := l.Append(op, data, db.Versions()); err != nil {
		t.Fatalf("append: %v", err)
	}
}

// TestLoggedVectorChecked: a record whose logged version vector disagrees
// with what its replay produces is refused — by ApplyRecord itself, leaving
// the error to its caller, and so by crash recovery — while a record that
// carries no vector (one the primary has not committed yet) is not checked.
func TestLoggedVectorChecked(t *testing.T) {
	db := relation.NewDatabase()
	if err := ApplyRecord(db, &Record{Op: OpReplace, Data: loads[0].data}); err != nil {
		t.Fatalf("unlogged record: %v", err)
	}
	want := db.Clone()
	if err := ApplyRecord(want, &Record{Op: OpAppend, Data: loads[1].data}); err != nil {
		t.Fatal(err)
	}
	good := &Record{Op: OpAppend, Data: loads[1].data, Versions: want.Versions()}
	if err := ApplyRecord(db.Clone(), good); err != nil {
		t.Fatalf("record with its own vector: %v", err)
	}
	bad := &Record{Op: OpAppend, Data: loads[1].data, Versions: map[string]uint64{"R": want.Versions()["R"] + 1}}
	if err := ApplyRecord(db, bad); err == nil || !strings.Contains(err.Error(), "differs from logged") {
		t.Fatalf("record with a wrong vector: got %v, want a vector mismatch", err)
	}

	dir := t.TempDir()
	l, err := openStore(t, dir).Session("main")
	if err != nil {
		t.Fatal(err)
	}
	ref := relation.NewDatabase()
	appendLoad(t, l, ref, loads[0].op, loads[0].data)
	if _, err := l.Append(OpAppend, loads[1].data, map[string]uint64{"R": 7}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := openStore(t, dir).Recover(); err == nil || !strings.Contains(err.Error(), "differs from logged") {
		t.Fatalf("recover over a record with a wrong vector: got %v, want a vector mismatch", err)
	}
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// loads is a deterministic sequence with appends, nulls, multiplicities
// and a mid-sequence replace.
var loads = []struct {
	op   Op
	data string
}{
	{OpReplace, "rel R a b\nrow R x 1\nrow R y _1\n"},
	{OpAppend, "row R z _1\nrow R z _1\n"},
	{OpAppend, "rel S v\nrow S 'a b' *3\nrow S _2\n"},
	{OpReplace, "rel R a b\nrow R p _1\nrow R q _2\n"},
	{OpAppend, "row R r _1\nrel T w\nrow T '*7'\n"},
}

// replayTo builds the reference database for the first n loads.
func replayTo(t *testing.T, n int) *relation.Database {
	t.Helper()
	db := relation.NewDatabase()
	for _, ld := range loads[:n] {
		switch ld.op {
		case OpAppend:
			if err := raparse.ParseDatabaseInto(strings.NewReader(ld.data), db); err != nil {
				t.Fatalf("reference apply: %v", err)
			}
		case OpReplace:
			fresh, err := raparse.ParseDatabase(strings.NewReader(ld.data))
			if err != nil {
				t.Fatalf("reference apply: %v", err)
			}
			*db = *fresh
		}
	}
	return db
}

func assertRecovered(t *testing.T, dir string, want *relation.Database) *Recovered {
	t.Helper()
	s := openStore(t, dir)
	recs, err := s.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(recs))
	}
	got := recs[0].DB
	if !got.Equal(want) {
		t.Fatalf("recovered database differs:\ngot  %s\nwant %s", got, want)
	}
	if !maps.Equal(got.Versions(), want.Versions()) {
		t.Fatalf("recovered versions %v, want %v", got.Versions(), want.Versions())
	}
	if got.NextNull() != want.NextNull() {
		t.Fatalf("recovered next null %d, want %d", got.NextNull(), want.NextNull())
	}
	return recs[0]
}

func TestRecoverFromWAL(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	l, err := s.Session("main")
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	db := relation.NewDatabase()
	for _, ld := range loads {
		appendLoad(t, l, db, ld.op, ld.data)
	}
	s.Close()
	assertRecovered(t, dir, replayTo(t, len(loads)))
}

// TestTornWrites cuts the WAL at every byte offset inside its last record
// and flips bytes in its checksum and payload: recovery must always come
// back to the state of the last intact record, truncate the tail, and
// accept further appends that a second recovery then sees.
func TestTornWrites(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	l, err := s.Session("main")
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	db := relation.NewDatabase()
	for _, ld := range loads {
		appendLoad(t, l, db, ld.op, ld.data)
	}
	s.Close()
	walPath := filepath.Join(dir, "sessions", "main", walFile)
	intact, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	// Locate the last record's start: re-scan the frames.
	offsets := frameOffsets(t, intact)
	if len(offsets) != len(loads) {
		t.Fatalf("found %d records, want %d", len(offsets), len(loads))
	}
	lastStart := offsets[len(offsets)-1]
	wantTorn := replayTo(t, len(loads)-1)
	wantFull := replayTo(t, len(loads))

	cuts := []int{lastStart, lastStart + 1, lastStart + 4, lastStart + 8,
		lastStart + 9, (lastStart + len(intact)) / 2, len(intact) - 1}
	for _, cut := range cuts {
		tornDir := t.TempDir()
		writeSession(t, tornDir, "main", intact[:cut])
		rec := assertRecovered(t, tornDir, wantTorn)
		// The torn tail must be gone and the log must accept new appends.
		tdb := rec.DB
		appendLoad(t, rec.Log, tdb, loads[len(loads)-1].op, loads[len(loads)-1].data)
		rec.Log.Close()
		assertRecovered(t, tornDir, wantFull)
	}

	// Bit flips: corrupt the checksum field and a payload byte of the last
	// record; both must be detected and discarded.
	for _, flip := range []int{lastStart + 4, lastStart + 10} {
		dirF := t.TempDir()
		mut := append([]byte(nil), intact...)
		mut[flip] ^= 0x40
		writeSession(t, dirF, "main", mut)
		assertRecovered(t, dirF, wantTorn)
	}

	// Garbage appended after intact records must not disturb them.
	garbageDir := t.TempDir()
	writeSession(t, garbageDir, "main", append(append([]byte(nil), intact...), "garbage tail"...))
	assertRecovered(t, garbageDir, wantFull)

	// A torn header (shorter than the magic) is an empty log.
	headDir := t.TempDir()
	writeSession(t, headDir, "main", intact[:3])
	s2 := openStore(t, headDir)
	recs, err := s2.Recover()
	if err != nil {
		t.Fatalf("recover torn header: %v", err)
	}
	if len(recs) != 1 || len(recs[0].DB.Names()) != 0 {
		t.Fatalf("torn header should recover an empty session")
	}
}

func TestSnapshotCompaction(t *testing.T) {
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
	snap, err := TakeSnapshot("main", db, l.Seq(), []WarmKey{{Query: "R", Proc: "cert"}})
	if err != nil {
		t.Fatalf("take snapshot: %v", err)
	}
	if err := l.InstallSnapshot(snap); err != nil {
		t.Fatalf("install snapshot: %v", err)
	}
	if l.WalBytes() != int64(len(walMagic)) {
		t.Fatalf("wal not compacted: %d bytes", l.WalBytes())
	}
	for _, ld := range loads[3:] {
		appendLoad(t, l, db, ld.op, ld.data)
	}
	s.Close()
	rec := assertRecovered(t, dir, replayTo(t, len(loads)))
	if len(rec.Warm) != 1 || rec.Warm[0].Proc != "cert" {
		t.Fatalf("warm keys not recovered: %+v", rec.Warm)
	}

	// Crash window: snapshot durable but WAL not yet truncated. Replay must
	// skip the covered records by sequence number instead of re-applying.
	crashDir := t.TempDir()
	cs := openStore(t, crashDir)
	cl, err := cs.Session("main")
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	cdb := relation.NewDatabase()
	for _, ld := range loads[:3] {
		appendLoad(t, cl, cdb, ld.op, ld.data)
	}
	csnap, err := TakeSnapshot("main", cdb, cl.Seq(), nil)
	if err != nil {
		t.Fatalf("take snapshot: %v", err)
	}
	// Install the snapshot file by hand, leaving the WAL untruncated — the
	// state a crash between rename and truncate leaves behind.
	f, err := os.Create(filepath.Join(crashDir, "sessions", "main", snapshotFile))
	if err != nil {
		t.Fatalf("create snapshot: %v", err)
	}
	if err := csnap.EncodeTo(f); err != nil {
		t.Fatalf("encode snapshot: %v", err)
	}
	f.Close()
	cs.Close()
	assertRecovered(t, crashDir, replayTo(t, 3))
}

// TestSessionRecoversUnloadedDirectory: Session on a directory Recover did
// not load takes the recovery path — the next record continues the
// sequence at the recovered epoch — and so refuses a corrupt snapshot
// instead of silently ignoring it.
func TestSessionRecoversUnloadedDirectory(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	l, err := s.Session("main")
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	l.SetEpoch(2)
	db := relation.NewDatabase()
	for _, ld := range loads[:3] {
		appendLoad(t, l, db, ld.op, ld.data)
	}
	snap, err := TakeSnapshot("main", db, l.Seq(), nil)
	if err != nil {
		t.Fatalf("take snapshot: %v", err)
	}
	snap.Epoch = l.Epoch()
	if err := l.InstallSnapshot(snap); err != nil {
		t.Fatalf("install snapshot: %v", err)
	}
	l.SetEpoch(3)
	for _, ld := range loads[3:] {
		appendLoad(t, l, db, ld.op, ld.data)
	}
	last := l.Seq()
	s.Close()

	l2, err := openStore(t, dir).Session("main")
	if err != nil {
		t.Fatalf("session over existing state: %v", err)
	}
	seq, err := l2.BufferTrace(OpAppend, "row R s _1\n", nil, "")
	if err != nil {
		t.Fatalf("buffer: %v", err)
	}
	if err := l2.Sync(seq); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if seq != last+1 || l2.Epoch() != 3 {
		t.Fatalf("next record got seq %d at epoch %d, want %d at epoch 3", seq, l2.Epoch(), last+1)
	}
	recs, err := replayWAL(filepath.Join(dir, "sessions", "main", walFile))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got := recs[len(recs)-1]; got.Seq != last+1 || got.Epoch != 3 {
		t.Fatalf("logged record seq %d epoch %d, want %d epoch 3", got.Seq, got.Epoch, last+1)
	}

	if err := os.WriteFile(filepath.Join(dir, "sessions", "main", snapshotFile), []byte("not a snapshot\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openStore(t, dir).Session("main"); err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("session over a corrupt snapshot: err = %v, want a snapshot error", err)
	}
}

// TestRandomizedCrashRecovery drives random load sequences, cuts the WAL at
// a random byte, and asserts recovery equals the reference prefix — the
// "SIGKILL at an arbitrary point" property, with the fsync boundary
// simulated by the cut.
func TestRandomizedCrashRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		s := openStore(t, dir)
		l, err := s.Session("x")
		if err != nil {
			t.Fatalf("session: %v", err)
		}
		db := relation.NewDatabase()
		var prefix []string // rendered reference state after each load
		steps := 3 + rng.Intn(5)
		for i := 0; i < steps; i++ {
			var b strings.Builder
			op := OpAppend
			if i == 0 || rng.Intn(4) == 0 {
				op = OpReplace
				fmt.Fprintf(&b, "rel R a b\n")
			}
			if i > 0 && op == OpAppend && rng.Intn(3) == 0 {
				fmt.Fprintf(&b, "rel S%d v\nrow S%d _9\n", i, i)
			}
			rows := 1 + rng.Intn(3)
			for r := 0; r < rows; r++ {
				if rng.Intn(2) == 0 {
					fmt.Fprintf(&b, "row R c%d _%d\n", rng.Intn(5), 1+rng.Intn(3))
				} else {
					fmt.Fprintf(&b, "row R 'v %d' x *%d\n", rng.Intn(5), 1+rng.Intn(3))
				}
			}
			appendLoad(t, l, db, op, b.String())
			text, err := raparse.RenderDatabase(db)
			if err != nil {
				t.Fatalf("render: %v", err)
			}
			prefix = append(prefix, text)
		}
		s.Close()

		walPath := filepath.Join(dir, "sessions", "x", walFile)
		intact, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatalf("read wal: %v", err)
		}
		offsets := frameOffsets(t, intact)
		cut := len(walMagic) + rng.Intn(len(intact)-len(walMagic)+1)
		// How many records survive the cut?
		survive := 0
		for i := range offsets {
			end := len(intact)
			if i+1 < len(offsets) {
				end = offsets[i+1]
			}
			if cut >= end {
				survive = i + 1
			}
		}
		tornDir := t.TempDir()
		writeSession(t, tornDir, "x", intact[:cut])
		ts := openStore(t, tornDir)
		recs, err := ts.Recover()
		if err != nil {
			t.Fatalf("trial %d: recover: %v", trial, err)
		}
		if len(recs) != 1 {
			t.Fatalf("trial %d: recovered %d sessions", trial, len(recs))
		}
		got, err := raparse.RenderDatabase(recs[0].DB)
		if err != nil {
			t.Fatalf("trial %d: render: %v", trial, err)
		}
		want := ""
		if survive > 0 {
			want = prefix[survive-1]
		}
		if got != want {
			t.Fatalf("trial %d: cut at %d (survive %d):\ngot  %q\nwant %q",
				trial, cut, survive, got, want)
		}
	}
}

// TestAppendFailStop: after a write error the log refuses every further
// append (and snapshot install) — the server must keep failing this
// session's loads rather than acknowledge records that replay cannot
// reconstruct.
func TestAppendFailStop(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	l, err := s.Session("main")
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	db := relation.NewDatabase()
	appendLoad(t, l, db, loads[0].op, loads[0].data)
	// Force the next write to fail by closing the file underneath the log.
	l.f.Close()
	if _, err := l.Append(OpAppend, "row R q q\n", nil); err == nil {
		t.Fatalf("append on closed wal succeeded")
	}
	if !l.Stats().Failed {
		t.Fatalf("log did not latch failed after a write error")
	}
	if _, err := l.Append(OpAppend, "row R q q\n", nil); err == nil ||
		!strings.Contains(err.Error(), "refusing further appends") {
		t.Fatalf("fail-stopped log accepted an append: %v", err)
	}
	snap, err := TakeSnapshot("main", db, l.Seq(), nil)
	if err != nil {
		t.Fatalf("take snapshot: %v", err)
	}
	if err := l.InstallSnapshot(snap); err == nil {
		t.Fatalf("fail-stopped log accepted a snapshot")
	}
	// Recovery still sees the acknowledged prefix.
	assertRecovered(t, dir, replayTo(t, 1))
}

func TestSessionNameEncoding(t *testing.T) {
	for _, name := range []string{"default", "weird name/.. %25", "ü\x00nicode", "-", "A_b-9"} {
		enc := encodeSessionName(name)
		if strings.ContainsAny(enc, "/\\ \x00.") {
			t.Fatalf("encoding of %q not filesystem-safe: %q", name, enc)
		}
		dec, err := decodeSessionName(enc)
		if err != nil {
			t.Fatalf("decode %q: %v", enc, err)
		}
		if dec != name {
			t.Fatalf("round trip %q → %q → %q", name, enc, dec)
		}
	}
	if _, err := decodeSessionName("bad name"); err == nil {
		t.Fatalf("expected decode error for raw space")
	}
}

// frameOffsets returns the byte offset of each record frame in an intact
// WAL image.
func frameOffsets(t *testing.T, wal []byte) []int {
	t.Helper()
	if string(wal[:len(walMagic)]) != walMagic {
		t.Fatalf("bad magic")
	}
	var offs []int
	i := len(walMagic)
	for i < len(wal) {
		if i+8 > len(wal) {
			t.Fatalf("truncated frame at %d", i)
		}
		n := int(uint32(wal[i])<<24 | uint32(wal[i+1])<<16 | uint32(wal[i+2])<<8 | uint32(wal[i+3]))
		offs = append(offs, i)
		i += 8 + n
	}
	return offs
}

// writeSession lays out a session directory holding exactly the given WAL
// image.
func writeSession(t *testing.T, dir, name string, wal []byte) {
	t.Helper()
	sd := filepath.Join(dir, "sessions", encodeSessionName(name))
	if err := os.MkdirAll(sd, 0o755); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := os.WriteFile(filepath.Join(sd, walFile), wal, 0o644); err != nil {
		t.Fatalf("write wal: %v", err)
	}
}

func TestSnapshotEncodeDecode(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.Consts("x"))
	db.Add(r)
	snap, err := TakeSnapshot("s", db, 5, []WarmKey{{Query: "R", Proc: "sql", Bag: true}})
	if err != nil {
		t.Fatalf("take: %v", err)
	}
	var enc strings.Builder
	if err := snap.EncodeTo(&enc); err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodeSnapshot(strings.NewReader(enc.String()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Seq != 5 || dec.Session != "s" || len(dec.Warm) != 1 || !dec.Warm[0].Bag {
		t.Fatalf("decoded header drifted: %+v", dec)
	}
	db2, err := dec.Database()
	if err != nil {
		t.Fatalf("database: %v", err)
	}
	if !db2.Equal(db) {
		t.Fatalf("decoded database differs")
	}
	if _, err := DecodeSnapshot(strings.NewReader("{\"format\":\"other\"}\n")); err == nil {
		t.Fatalf("expected format rejection")
	}
}
