package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incdb/internal/api"
	"incdb/internal/obs"
	"incdb/internal/store"
)

// replicator makes this server a read replica of a primary incdbd: it
// discovers the primary's sessions by polling its status endpoint, and for
// each one runs a follow loop that bootstraps the session from the
// primary's snapshot endpoint and then tails its WAL endpoint, applying
// every record through session.apply — the call the primary's own commit
// makes, over store.ApplyRecord, which crash recovery uses too — so the
// replica converges to a byte-identical database, null identities and
// version vectors included. ApplyRecord checks each record's logged
// version vector; any divergence, gap or compacted-away WAL position makes
// the follower re-bootstrap from a fresh snapshot rather than serve
// diverged data.
//
// On a durable replica every applied record is also mirrored, verbatim and
// with the primary's sequence numbers, into the replica's own WAL (fsync'd
// by a per-session syncer that batches like the primary's group commit),
// so a restarted replica recovers locally and resumes tailing from its
// last applied sequence number without re-bootstrapping.
type replicator struct {
	s       *Server
	primary string

	// cancel/wg stop the subsystem: promotion cancels the follow context
	// and waits for discovery, every follow loop and every in-flight
	// mirror fsync to finish, so the promoted server's logs are quiesced
	// and fully durable before the epoch records commit.
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*followState
}

// followState is one session's replication progress.
type followState struct {
	name       string
	state      atomic.Value // string: bootstrapping | tailing | retrying
	applied    atomic.Uint64
	bootstraps atomic.Uint64
	frames     atomic.Uint64
	lastErr    atomic.Value // string

	// primarySeq is the primary's last known WAL position for this session
	// (from discovery's status polls) — the best available caught-up bar
	// when the primary is unreachable.
	primarySeq atomic.Uint64

	// lastApplied is the unix-nano timestamp of the last applied record (or
	// finished bootstrap) — the wall-clock half of the lag gauges: seq delta
	// says how far behind, seconds-since-apply says for how long nothing
	// has arrived.
	lastApplied atomic.Int64

	// The durable mirror's group-commit syncer: apply buffers the record
	// and pokes syncCh; the syncer fsyncs the newest buffered sequence
	// number, so one fsync covers every record applied while the previous
	// fsync was in flight.
	pending atomic.Uint64
	syncCh  chan struct{}
}

// errDiverged forces a re-bootstrap: the replica's state no longer lines
// up with the primary's log.
var errDiverged = errors.New("server: replica diverged from primary log")

// StartFollow turns the server into a read replica of the primary at the
// given base URL. Must be called before serving; every load handler then
// answers 403 read_only_replica. Discovery and the per-session follow
// loops run until ctx is done.
func (s *Server) StartFollow(ctx context.Context, primary string) {
	fctx, cancel := context.WithCancel(ctx)
	r := &replicator{
		s:        s,
		primary:  strings.TrimRight(primary, "/"),
		cancel:   cancel,
		sessions: map[string]*followState{},
	}
	s.repl.Store(r)
	// Sessions recovered from the replica's own data directory resume
	// immediately; discovery adds the ones it has not seen yet.
	for _, sess := range s.sessionList() {
		r.ensureFollow(fctx, sess.name)
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.discover(fctx)
	}()
}

// followStates returns every followed session's progress, sorted by name.
func (r *replicator) followStates() []*followState {
	r.mu.Lock()
	states := make([]*followState, 0, len(r.sessions))
	for _, fs := range r.sessions {
		states = append(states, fs)
	}
	r.mu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].name < states[j].name })
	return states
}

// stop cancels replication and waits for every loop and in-flight mirror
// fsync to finish — the drain step of promotion.
func (r *replicator) stop() {
	r.cancel()
	r.wg.Wait()
}

// lag reports why this follower is not caught up with its primary, or ""
// when it is — as far as a follower can tell: every session is tailing
// (not bootstrapping or retrying) and has applied at least the primary's
// last observed WAL position. With the primary dead that observation is
// the last successful status poll; records the primary acknowledged but
// never shipped are invisible here (promotion with force accepts their
// loss).
func (r *replicator) lag() string {
	for _, fs := range r.followStates() {
		if st := fs.state.Load().(string); st != "tailing" {
			return fmt.Sprintf("session %q is %s", fs.name, st)
		}
		if ps, ap := fs.primarySeq.Load(), fs.applied.Load(); ap < ps {
			return fmt.Sprintf("session %q applied seq %d, primary reported %d", fs.name, ap, ps)
		}
	}
	return ""
}

// discover polls the primary's status for sessions to follow, records each
// one's primary-side WAL position (the caught-up bar promotion checks),
// and adopts the primary's epoch.
func (r *replicator) discover(ctx context.Context) {
	c := NewClient(r.primary, "")
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		if st, err := c.Status(); err == nil {
			r.s.observeEpoch(st.Epoch)
			for _, sess := range st.Sessions {
				r.ensureFollow(ctx, sess.Name)
				if sess.Durability != nil {
					r.mu.Lock()
					fs := r.sessions[sess.Name]
					r.mu.Unlock()
					if fs != nil {
						fs.primarySeq.Store(sess.Durability.Seq)
					}
				}
			}
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return
		}
	}
}

// ensureFollow starts the follow loop for a session once.
func (r *replicator) ensureFollow(ctx context.Context, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sessions[name]; ok {
		return
	}
	fs := &followState{name: name, syncCh: make(chan struct{}, 1)}
	fs.state.Store("bootstrapping")
	fs.lastErr.Store("")
	r.sessions[name] = fs
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.follow(ctx, fs)
	}()
}

// follow is the per-session loop: follow the primary until ctx is done,
// backing off on errors (200ms doubling to 3s; any progress resets it).
// Each sleep is jittered to 50–150% of the nominal backoff: when a primary
// restarts with many followers, pure exponential backoff would synchronize
// their re-tails into thundering-herd waves.
func (r *replicator) follow(ctx context.Context, fs *followState) {
	backoff := 200 * time.Millisecond
	for ctx.Err() == nil {
		before := fs.frames.Load()
		err := r.followOnce(ctx, fs)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			fs.lastErr.Store(err.Error())
			fs.state.Store("retrying")
		}
		if err == nil || fs.frames.Load() > before {
			backoff = 200 * time.Millisecond
		}
		select {
		case <-time.After(jitter(backoff)):
		case <-ctx.Done():
			return
		}
		if backoff *= 2; backoff > 3*time.Second {
			backoff = 3 * time.Second
		}
	}
}

// jitter spreads a nominal delay uniformly over [d/2, 3d/2).
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + rand.N(d)
}

// followOnce runs one bootstrap-if-needed + tail cycle. A nil return means
// the primary closed the stream cleanly (e.g. it restarted, or compacted
// past our position mid-stream) — the caller reconnects, and a position
// that truly is gone answers the reconnect with wal_gap.
func (r *replicator) followOnce(ctx context.Context, fs *followState) error {
	sess, err := r.s.ensureSession(fs.name)
	if err != nil {
		return err
	}
	fs.applied.Store(sess.replSeq.Load())
	c := NewClient(r.primary, fs.name)
	if sess.replSeq.Load() == 0 {
		if err := r.bootstrap(ctx, c, fs, sess); err != nil {
			return err
		}
	}
	fs.state.Store("tailing")
	err = c.TailWAL(ctx, sess.replSeq.Load(), func(rec *store.Record) error {
		if err := r.apply(fs, sess, rec); err != nil {
			return err
		}
		// The mirrored WAL compacts on the replica's own threshold, so a
		// long-lived follower's disk usage tracks the primary's.
		r.s.snapshotIfNeeded(sess)
		fs.lastErr.Store("") // progress: the caller-side error accounting clears
		return nil
	})
	var aerr *api.Error
	if errors.Is(err, errDiverged) || (errors.As(err, &aerr) && aerr.Code == api.CodeWALGap) {
		// We diverged, or our position was compacted away: start over from a
		// snapshot.
		return r.bootstrap(ctx, c, fs, sess)
	}
	return err
}

// bootstrap fetches a consistent snapshot from the primary and installs it
// wholesale: database, null identities, version vector, warm plan keys and
// the primary's WAL position. On a durable replica the snapshot also lands
// in the local store (truncating the mirrored WAL), so recovery starts
// from it.
func (r *replicator) bootstrap(ctx context.Context, c *Client, fs *followState, sess *session) error {
	fs.state.Store("bootstrapping")
	data, err := c.Snapshot()
	if err != nil {
		return fmt.Errorf("bootstrap %q: %w", fs.name, err)
	}
	snap, err := store.DecodeSnapshot(strings.NewReader(data))
	if err != nil {
		return fmt.Errorf("bootstrap %q: %w", fs.name, err)
	}
	db, err := snap.Database()
	if err != nil {
		return fmt.Errorf("bootstrap %q: %w", fs.name, err)
	}
	// Epoch fencing on the snapshot vector: a bootstrap snapshot from an
	// epoch behind what this replica has already seen comes from a stale
	// primary (e.g. a revived pre-promotion one) — installing it would
	// rewind onto a superseded history.
	localEpoch := r.s.epoch.Load()
	if sess.log != nil {
		localEpoch = sess.log.Epoch()
	}
	if snap.Epoch < localEpoch {
		return fmt.Errorf("bootstrap %q: snapshot epoch %d is behind local epoch %d (stale primary?)",
			fs.name, snap.Epoch, localEpoch)
	}
	r.s.observeEpoch(snap.Epoch)
	sess.logMu.Lock()
	_ = sess.mutate(func() error { // install cannot fail
		sess.install(db)
		return nil
	})
	sess.replSeq.Store(snap.Seq)
	var ierr error
	if sess.log != nil {
		ierr = sess.log.InstallSnapshot(snap)
	}
	sess.logMu.Unlock()
	if ierr != nil {
		return fmt.Errorf("bootstrap %q: install snapshot: %w", fs.name, ierr)
	}
	r.s.warmSession(sess, snap.Warm)
	fs.applied.Store(snap.Seq)
	fs.lastApplied.Store(time.Now().UnixNano())
	fs.bootstraps.Add(1)
	log.Printf("server: replica bootstrapped session %q at seq %d (%d relations)",
		fs.name, snap.Seq, len(db.Names()))
	return nil
}

// apply replays one primary WAL record into the session the way the
// primary's commit applied it — session.apply under mutate — then mirrors
// it: local WAL buffering under the commit mutex (log order = apply order),
// fsync batched by the session syncer. Gaps, duplicates behind a hole,
// records ApplyRecord refuses (a payload error or a vector mismatch) and
// local-log sequence clashes all surface as errDiverged, forcing a
// re-bootstrap.
func (r *replicator) apply(fs *followState, sess *session, rec *store.Record) error {
	sess.logMu.Lock()
	defer sess.logMu.Unlock()
	last := sess.replSeq.Load()
	if rec.Seq <= last {
		return nil // already applied (stream overlap after reconnect)
	}
	if rec.Seq != last+1 {
		return fmt.Errorf("%w: got seq %d after %d", errDiverged, rec.Seq, last)
	}
	// A record carrying trace context gets its apply recorded as a span in
	// this follower's own ring, parented on the primary's wal.commit span —
	// the cross-server link of a distributed trace. Only sampled traces
	// travel (the primary propagates its flag), so an unsampled fleet pays
	// one string comparison per record.
	var sp *obs.Span
	if rec.Trace != "" && r.s.tracer != nil {
		if sc, ok := obs.ParseTraceParent(rec.Trace); ok {
			sp = r.s.tracer.StartLinked("replica.apply", sc, true)
			sp.Attr("seq", strconv.FormatUint(rec.Seq, 10))
			sp.Attr("op", string(rec.Op))
			sp.Attr("session", sess.name)
		}
	}
	defer sp.End()
	err := sess.mutate(func() error {
		if err := sess.apply(rec); err != nil {
			return fmt.Errorf("%w: apply seq %d: %v", errDiverged, rec.Seq, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if sess.log != nil {
		if err := sess.log.BufferRecord(rec); err != nil {
			return fmt.Errorf("%w: mirror seq %d: %v", errDiverged, rec.Seq, err)
		}
		fs.pending.Store(rec.Seq)
		select {
		case fs.syncCh <- struct{}{}:
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				r.syncOne(fs, sess)
			}()
		default: // a sync is already pending; it will cover this record
		}
	}
	// The record's epoch is the primary's current epoch; adopt it (a
	// promoted primary's epoch record travels the stream like any other).
	r.s.observeEpoch(rec.Epoch)
	sess.replSeq.Store(rec.Seq)
	fs.applied.Store(rec.Seq)
	fs.lastApplied.Store(time.Now().UnixNano())
	fs.frames.Add(1)
	return nil
}

// syncOne drains one syncer token: fsync everything buffered so far. New
// records arriving while this runs buffer behind it and schedule the next
// one — the replica's group commit.
func (r *replicator) syncOne(fs *followState, sess *session) {
	defer func() { <-fs.syncCh }()
	if err := sess.log.Sync(fs.pending.Load()); err != nil {
		log.Printf("server: replica wal sync %q: %v", fs.name, err)
	}
}

// status renders the replication section of the status response.
func (r *replicator) status() *api.ReplicationStatus {
	out := &api.ReplicationStatus{Primary: r.primary}
	for _, fs := range r.followStates() {
		out.Sessions = append(out.Sessions, api.ReplicaSession{
			Session:    fs.name,
			State:      fs.state.Load().(string),
			AppliedSeq: fs.applied.Load(),
			Bootstraps: fs.bootstraps.Load(),
			Frames:     fs.frames.Load(),
			LastError:  fs.lastErr.Load().(string),
		})
	}
	return out
}
