package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"incdb/internal/raparse"
	"incdb/internal/relation"
)

// SnapshotFormat names the snapshot file format; Decode rejects anything
// else. The golden-file test in internal/raparse pins the .idb body.
const SnapshotFormat = "incdbstore-snapshot-v1"

// WarmKey identifies one prepared-plan cache entry worth re-warming after
// recovery: the original query text with the evaluation procedure and
// semantics it was requested under. The server records the recently used
// keys per session and re-prepares them once the database is rebuilt, so a
// restarted (or bootstrapped) server answers its working set at warm-cache
// latency from the first request.
type WarmKey struct {
	Query string `json:"query"`
	Proc  string `json:"proc"`
	Bag   bool   `json:"bag,omitempty"`
}

// Snapshot is one durable copy of a session database: a JSON header line
// (format, session, covered WAL sequence number, version vector, fresh-null
// allocator position, warm keys, timestamp) followed by the raparse
// rendering of the database. The same encoding backs the on-disk snapshot
// files, the /v1/snapshot export endpoint and the snapshot-bootstrap load
// path, so a replica restores byte-identical state from a running server.
type Snapshot struct {
	Format  string `json:"format"`
	Session string `json:"session"`
	Seq     uint64 `json:"seq"`
	// Epoch is the replication epoch the snapshot was taken under (absent
	// in pre-epoch snapshots, which decode to 0). A server restoring or
	// bootstrapping from a snapshot adopts its epoch; a replica refuses a
	// bootstrap snapshot whose epoch is behind what it has already seen.
	Epoch    uint64            `json:"epoch,omitempty"`
	NextNull uint64            `json:"next_null"`
	Versions map[string]uint64 `json:"versions"`
	Warm     []WarmKey         `json:"warm,omitempty"`
	TakenAt  string            `json:"taken_at"`

	// Data is the raparse rendering of the database (not part of the JSON
	// header; it follows on the remaining lines).
	Data string `json:"-"`
}

// TakeSnapshot renders db into a snapshot. The caller must hold whatever
// lock makes db stable (the server renders under the session read lock with
// the commit mutex held, so seq is consistent with the rendered contents).
func TakeSnapshot(session string, db *relation.Database, seq uint64, warm []WarmKey) (*Snapshot, error) {
	data, err := raparse.RenderDatabase(db)
	if err != nil {
		return nil, fmt.Errorf("store: render %q: %w", session, err)
	}
	return &Snapshot{
		Format:   SnapshotFormat,
		Session:  session,
		Seq:      seq,
		NextNull: db.NextNull(),
		Versions: db.Versions(),
		Warm:     warm,
		TakenAt:  time.Now().UTC().Format(time.RFC3339),
		Data:     data,
	}, nil
}

// EncodeTo writes the snapshot encoding: one JSON header line, then the
// database text.
func (sn *Snapshot) EncodeTo(w io.Writer) error {
	header, err := json.Marshal(sn)
	if err != nil {
		return err
	}
	if _, err := w.Write(append(header, '\n')); err != nil {
		return err
	}
	_, err = io.WriteString(w, sn.Data)
	return err
}

// DecodeSnapshot parses the snapshot encoding.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	header, err := br.ReadString('\n')
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("store: snapshot header: %w", err)
	}
	var sn Snapshot
	if err := json.Unmarshal([]byte(header), &sn); err != nil {
		return nil, fmt.Errorf("store: snapshot header: %w", err)
	}
	if sn.Format != SnapshotFormat {
		return nil, fmt.Errorf("store: unsupported snapshot format %q", sn.Format)
	}
	body, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot body: %w", err)
	}
	sn.Data = string(body)
	return &sn, nil
}

// Database rebuilds the snapshotted database: the text is parsed with
// preserved null identifiers, the version vector is restored relation by
// relation, and the fresh-null allocator resumes where the original left
// off — so replaying post-snapshot WAL records (which allocate fresh nulls
// deterministically) reproduces the crashed server's state exactly.
func (sn *Snapshot) Database() (*relation.Database, error) {
	db := relation.NewDatabase()
	if err := raparse.ParseDatabaseIntoOpts(strings.NewReader(sn.Data), db, raparse.DBOptions{PreserveNulls: true}); err != nil {
		return nil, fmt.Errorf("store: snapshot body: %w", err)
	}
	for name, v := range sn.Versions {
		r := db.Relation(name)
		if r == nil {
			return nil, fmt.Errorf("store: snapshot versions mention %q, body does not declare it", name)
		}
		r.RestoreVersion(v)
	}
	if sn.NextNull > 0 {
		db.ReserveNull(sn.NextNull - 1)
	}
	return db, nil
}
