// Package store is the durability subsystem of incdbd: per-session
// write-ahead logs of load mutations, periodic snapshots of the database
// text, and crash recovery that rebuilds every session from snapshot + WAL
// replay.
//
// Layout under the data directory:
//
//	<dir>/sessions/<enc>/wal.log       append-only log of load records
//	<dir>/sessions/<enc>/snapshot.idb  latest durable snapshot (optional)
//
// where <enc> is the session name with every byte outside [A-Za-z0-9_-]
// percent-encoded, so arbitrary session names map to safe, invertible
// directory names.
//
// The write-ahead log holds one record per acknowledged /v1/load mutation:
// the raparse payload plus the version vector the mutation produced,
// length-prefixed and CRC-checksummed, fsync'd before the server
// acknowledges. Replay applies the same payloads in the same order to an
// identical starting state, so it reproduces the database exactly — null
// identifiers and version vectors included — and a torn tail (a record cut
// short by the crash) is detected by the framing, discarded, and truncated
// away.
//
// One codec frames every record: encodeFrame writes it, and readFrame is
// its only decoder — crash replay, the WAL tailer feeding replicas and the
// replica's stream reader (ReadFrame) all go through it, each keeping only
// its own policy for a frame that fails to decode.
//
// Snapshots compact the log: the database is rendered to .idb text
// (raparse.RenderDatabase) together with the version vector, the fresh-null
// allocator position and the session's warm prepared-plan keys, written to
// a temporary file, fsync'd and atomically renamed; then the WAL is
// truncated. Every record carries a sequence number and the snapshot
// records the last one it covers, so a crash between the rename and the
// truncation merely leaves already-covered records in the log — replay
// skips them.
package store

import (
	"fmt"
	"log"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"incdb/internal/raparse"
	"incdb/internal/relation"
)

// Options configures a store.
type Options struct {
	// SnapshotBytes is the WAL size beyond which the server takes a
	// snapshot and compacts the log (<= 0 means DefaultSnapshotBytes).
	SnapshotBytes int64
	// Observer, when non-nil, receives WAL and snapshot latency
	// observations and per-traced-record flush callbacks from every
	// session log of this store.
	Observer *Observer
}

// DefaultSnapshotBytes is the default WAL-size snapshot threshold.
const DefaultSnapshotBytes = 4 << 20

// Store is the durability root for one data directory.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	sessions map[string]*SessionLog
}

// Open creates (if necessary) and opens the data directory. Recover replays
// what is already there; Session attaches new sessions.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty data directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "sessions"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, opts: opts, sessions: map[string]*SessionLog{}}, nil
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// SnapshotBytes returns the WAL-size threshold for snapshots.
func (s *Store) SnapshotBytes() int64 {
	if s.opts.SnapshotBytes > 0 {
		return s.opts.SnapshotBytes
	}
	return DefaultSnapshotBytes
}

// Session returns the log for the named session, creating its directory
// and an empty WAL on first use. One SessionLog object exists per name. A
// session directory Recover did not load is recovered here, so its
// sequence numbers continue instead of colliding — and, as in Recover, a
// corrupt snapshot or WAL is an error.
func (s *Store) Session(name string) (*SessionLog, error) {
	if name == "" {
		return nil, fmt.Errorf("store: empty session name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.sessions[name]; ok {
		return l, nil
	}
	rec, err := s.recoverSession(name)
	if err != nil {
		return nil, fmt.Errorf("store: recover session %q: %w", name, err)
	}
	s.sessions[name] = rec.Log
	return rec.Log, nil
}

func (s *Store) sessionDir(name string) string {
	return filepath.Join(s.dir, "sessions", encodeSessionName(name))
}

// Close closes every open session log.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, l := range s.sessions {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.sessions = map[string]*SessionLog{}
	return first
}

// Recovered is one session rebuilt by Recover: its database (catalogue,
// contents, version vector and null allocator restored to the last
// acknowledged load) and the warm prepared-plan keys the latest snapshot
// carried. Log is open and ready for further appends.
type Recovered struct {
	Name string
	DB   *relation.Database
	Warm []WarmKey
	Log  *SessionLog
	// Epoch is the highest replication epoch observed in the snapshot and
	// replayed records — the epoch the session continues under.
	Epoch uint64
}

// Recover scans the data directory and rebuilds every session: the latest
// snapshot (when present) restores the database with preserved null
// identifiers and version vector, then the WAL records past the snapshot's
// sequence number are replayed in order. A torn record tail is discarded
// and truncated from the log. The result is deterministic: replaying the
// same acknowledged loads onto the same base state reproduces the original
// database byte for byte.
func (s *Store) Recover() ([]*Recovered, error) {
	root := filepath.Join(s.dir, "sessions")
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name, err := decodeSessionName(e.Name())
		if err != nil {
			log.Printf("store: skipping session directory %q: %v", e.Name(), err)
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)

	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Recovered
	for _, name := range names {
		rec, err := s.recoverSession(name)
		if err != nil {
			return nil, fmt.Errorf("store: recover session %q: %w", name, err)
		}
		s.sessions[name] = rec.Log
		out = append(out, rec)
	}
	return out, nil
}

// recoverSession rebuilds one session from its snapshot and WAL (either may
// be missing) and opens its log after the last intact record — the one
// place a log's sequence state is worked out. The caller holds s.mu and
// registers the log.
func (s *Store) recoverSession(name string) (*Recovered, error) {
	dir := s.sessionDir(name)
	db := relation.NewDatabase()
	var warm []WarmKey
	var snapSeq, epoch uint64

	snapPath := filepath.Join(dir, snapshotFile)
	if f, err := os.Open(snapPath); err == nil {
		snap, derr := DecodeSnapshot(f)
		f.Close()
		if derr != nil {
			return nil, fmt.Errorf("snapshot %s: %w", snapPath, derr)
		}
		db, derr = snap.Database()
		if derr != nil {
			return nil, fmt.Errorf("snapshot %s: %w", snapPath, derr)
		}
		warm, snapSeq, epoch = snap.Warm, snap.Seq, snap.Epoch
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	records, err := replayWAL(filepath.Join(dir, walFile))
	if err != nil {
		return nil, err
	}
	seq := snapSeq
	for _, rec := range records {
		if rec.Seq <= snapSeq {
			continue // already covered by the snapshot
		}
		if err := ApplyRecord(db, &rec); err != nil {
			return nil, fmt.Errorf("wal record %d: %w", rec.Seq, err)
		}
		seq = rec.Seq
		if rec.Epoch > epoch {
			epoch = rec.Epoch
		}
	}

	l, err := openSessionLogAt(name, dir, seq, snapSeq, epoch, s.opts.Observer)
	if err != nil {
		return nil, err
	}
	return &Recovered{Name: name, DB: db, Warm: warm, Log: l, Epoch: epoch}, nil
}

// ApplyRecord applies one load mutation to db: the only code that knows
// what an op does. Crash recovery, a replica's WAL tail, the primary's own
// commit (through the server's session.apply) and its staging of a replace
// all go through it, so re-applying the same acknowledged records in the
// same order onto the same base state reproduces the original database
// byte for byte, null identities and version vectors included.
//
// A record that carries a version vector — every logged one does — is
// checked against the vector the database reports after the apply: the
// record was acknowledged with that vector and replay is deterministic, so
// a mismatch means corruption or a logic bug, and it is an error rather
// than silently diverged data. A record the primary is about to commit
// carries none yet; its vector is read off the result.
func ApplyRecord(db *relation.Database, rec *Record) error {
	var fresh *relation.Database
	var err error
	switch rec.Op {
	case OpAppend:
		err = raparse.ParseDatabaseInto(strings.NewReader(rec.Data), db)
	case OpReplace:
		fresh, err = raparse.ParseDatabase(strings.NewReader(rec.Data))
	case OpRestore:
		var snap *Snapshot
		if snap, err = DecodeSnapshot(strings.NewReader(rec.Data)); err == nil {
			fresh, err = snap.Database()
		}
	case OpEpoch:
		// A promotion marker: raises the epoch, mutates nothing.
	default:
		err = fmt.Errorf("unknown op %q", rec.Op)
	}
	if err != nil {
		return err
	}
	if fresh != nil {
		*db = *fresh
	}
	if rec.Versions != nil && !maps.Equal(db.Versions(), rec.Versions) {
		return fmt.Errorf("replayed version vector %v differs from logged %v", db.Versions(), rec.Versions)
	}
	return nil
}

// encodeSessionName maps an arbitrary session name to a filesystem-safe,
// invertible directory name: bytes in [A-Za-z0-9_-] pass through, anything
// else is percent-encoded.
func encodeSessionName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-' {
			b.WriteByte(c)
			continue
		}
		fmt.Fprintf(&b, "%%%02X", c)
	}
	return b.String()
}

func decodeSessionName(dir string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(dir); i++ {
		c := dir[i]
		switch {
		case c == '%':
			if i+2 >= len(dir) {
				return "", fmt.Errorf("truncated escape in %q", dir)
			}
			var v int
			if _, err := fmt.Sscanf(dir[i+1:i+3], "%02X", &v); err != nil {
				return "", fmt.Errorf("bad escape in %q", dir)
			}
			b.WriteByte(byte(v))
			i += 2
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-':
			b.WriteByte(c)
		default:
			return "", fmt.Errorf("unexpected byte %q in %q", c, dir)
		}
	}
	if b.Len() == 0 {
		return "", fmt.Errorf("empty session name")
	}
	return b.String(), nil
}
