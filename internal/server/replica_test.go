package server

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"incdb/internal/api"
	"incdb/internal/relation"
	"incdb/internal/store"
)

// newFollower builds a replica of the primary at primaryURL, durable in
// dir when dir != "", and returns it with its follow context's cancel (the
// test's "kill switch").
func newFollower(t *testing.T, primaryURL, dir string, opts Options) (*Server, *httptest.Server, *Client, context.CancelFunc) {
	t.Helper()
	srv := New(opts)
	if dir != "" {
		if err := srv.EnableDurability(dir); err != nil {
			t.Fatalf("replica durability: %v", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.StartFollow(ctx, primaryURL)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(cancel)
	t.Cleanup(func() { srv.Close() })
	return srv, hs, NewClient(hs.URL, "test"), cancel
}

// waitCaughtUp polls the replica until every session's version vector
// matches the primary's (the replication catch-up barrier for tests).
func waitCaughtUp(t *testing.T, primary, replica *Client) {
	t.Helper()
	want := sessionVersions(t, primary)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if got := sessionVersions(t, replica); reflect.DeepEqual(got, want) && !bootstrapping(t, replica) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("replica never caught up: primary %v, replica %v",
		want, sessionVersions(t, replica))
}

// bootstrapping reports whether a follower session is still inside a
// bootstrap: the snapshot's database is installed (and visible in the
// version vectors) before the bootstrap is counted and the session starts
// tailing, and promotion refuses a session in that window.
func bootstrapping(t *testing.T, replica *Client) bool {
	t.Helper()
	st, err := replica.Status()
	if err != nil {
		t.Fatalf("replica status: %v", err)
	}
	if st.Replication == nil {
		return false
	}
	for _, rs := range st.Replication.Sessions {
		if rs.State == "bootstrapping" {
			return true
		}
	}
	return false
}

// TestReplicaConvergesByteIdentical is the tentpole acceptance: a durable
// replica follows a durable primary through a mixed load history (appends,
// replaces, nulls, multiplicities, two sessions) and, once caught up,
// answers every evaluation procedure byte-identically — null identities
// and version vectors included — while rejecting loads as read-only.
func TestReplicaConvergesByteIdentical(t *testing.T) {
	_, phs, pc := newDurableServer(t, t.TempDir(), 0)
	seq := loadSeq(rand.New(rand.NewSource(7)), 8)
	for _, ld := range seq {
		if _, err := NewClient(pc.Base(), ld.session).Load(ld.data, ld.app); err != nil {
			t.Fatalf("primary load: %v", err)
		}
	}

	_, _, rc, _ := newFollower(t, phs.URL, t.TempDir(), Options{Workers: 1})
	waitCaughtUp(t, pc, rc)

	for _, sess := range []string{"s1", "s2"} {
		if _, ok := sessionVersions(t, pc)[sess]; !ok {
			continue
		}
		want := answers(t, pc, sess, crashQueries)
		got := answers(t, rc, sess, crashQueries)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("session %s: replica answers differ:\nprimary %v\nreplica %v", sess, want, got)
		}
	}

	// Replication is live: a later append on the primary shows up.
	if _, err := NewClient(pc.Base(), "s1").Load("row P c9\n", true); err != nil {
		t.Fatalf("late append: %v", err)
	}
	waitCaughtUp(t, pc, rc)
	want := answers(t, pc, "s1", crashQueries)
	if got := answers(t, rc, "s1", crashQueries); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-append replica answers differ:\nprimary %v\nreplica %v", want, got)
	}

	// The replica refuses mutations with the machine-readable code.
	_, err := NewClient(rc.Base(), "s1").Load("row P c10\n", true)
	var aerr *api.Error
	if !errors.As(err, &aerr) || aerr.Code != api.CodeReadOnlyReplica {
		t.Fatalf("replica load error = %v, want code %s", err, api.CodeReadOnlyReplica)
	}
}

// TestReplicaRestartResumesWithoutBootstrap: a durable follower that is
// killed (follow loops cut, server abandoned) and restarted on its data
// directory recovers locally and resumes tailing from its last applied
// sequence number — no snapshot re-bootstrap — then converges on writes it
// missed while down.
func TestReplicaRestartResumesWithoutBootstrap(t *testing.T) {
	_, phs, pc := newDurableServer(t, t.TempDir(), 0)
	if _, err := pc.Load(ordersData, false); err != nil {
		t.Fatalf("primary load: %v", err)
	}

	rdir := t.TempDir()
	_, rhs, rc, kill := newFollower(t, phs.URL, rdir, Options{Workers: 1})
	waitCaughtUp(t, pc, rc)

	// Mirrored records are fsync'd by an async syncer; wait for the durable
	// seq to reach the applied seq so the "kill" loses nothing (a lagging
	// sync would merely mean re-tailing a suffix, but this test pins the
	// stronger property: restart resumes exactly, zero bootstraps).
	deadline := time.Now().Add(5 * time.Second)
	for {
		ss, err := rc.SessionStatus()
		if err != nil {
			t.Fatalf("replica session status: %v", err)
		}
		if ss.Durability == nil {
			t.Fatalf("durable replica reports no durability")
		}
		if ss.Durability.DurableSeq == ss.Durability.Seq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica wal never synced: %+v", ss.Durability)
		}
		time.Sleep(10 * time.Millisecond)
	}
	kill()
	rhs.Close()

	// Writes land on the primary while the follower is down.
	if _, err := pc.Load("row Orders o8 c2\nrow Payments o8\n", true); err != nil {
		t.Fatalf("append while replica down: %v", err)
	}

	_, _, rc2, _ := newFollower(t, phs.URL, rdir, Options{Workers: 1})
	waitCaughtUp(t, pc, rc2)
	st, err := rc2.Status()
	if err != nil {
		t.Fatalf("replica status: %v", err)
	}
	if st.Replication == nil || st.Replication.Primary != phs.URL {
		t.Fatalf("replica status has no replication section: %+v", st)
	}
	for _, rs := range st.Replication.Sessions {
		if rs.Bootstraps != 0 {
			t.Fatalf("restarted replica re-bootstrapped session %q: %+v", rs.Session, rs)
		}
	}
	want := answers(t, pc, "test", bootQueries)
	if got := answers(t, rc2, "test", bootQueries); !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted replica answers differ:\nprimary %v\nreplica %v", want, got)
	}
}

// TestReplicaReBootstrapsAcrossWALGap: a follower that went down long
// enough for the primary to snapshot and compact past its position gets
// wal_gap on reconnect and re-bootstraps from a fresh snapshot, converging
// anyway.
func TestReplicaReBootstrapsAcrossWALGap(t *testing.T) {
	pdir := t.TempDir()
	_, phs, pc := newDurableServer(t, pdir, 1<<20) // no compaction yet
	if _, err := pc.Load(ordersData, false); err != nil {
		t.Fatalf("primary load: %v", err)
	}
	rdir := t.TempDir()
	_, rhs, rc, kill := newFollower(t, phs.URL, rdir, Options{Workers: 1})
	waitCaughtUp(t, pc, rc)
	kill()
	rhs.Close()

	// While the follower is down the primary appends and compacts: restart
	// it with a tiny snapshot threshold so the log truncates past the
	// follower's position.
	phs.Close()
	_, phs2, pc2 := newDurableServer(t, pdir, 1)
	if _, err := pc2.Load("row Orders o8 c2\n", true); err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := pc2.Load("row Payments o8\n", true); err != nil {
		t.Fatalf("append: %v", err)
	}

	_, _, rc2, _ := newFollower(t, phs2.URL, rdir, Options{Workers: 1})
	waitCaughtUp(t, pc2, rc2)
	st, err := rc2.Status()
	if err != nil {
		t.Fatalf("replica status: %v", err)
	}
	var boots uint64
	for _, rs := range st.Replication.Sessions {
		boots += rs.Bootstraps
	}
	if boots == 0 {
		t.Fatalf("follower crossed a wal gap without re-bootstrapping: %+v", st.Replication)
	}
	want := answers(t, pc2, "test", bootQueries)
	if got := answers(t, rc2, "test", bootQueries); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-bootstrapped replica answers differ:\nprimary %v\nreplica %v", want, got)
	}
}

// TestConsistencyToken: a client that wrote through the primary can read
// its write on a replica by echoing the response's version vector — the
// replica holds the read until replication covers the token. A token the
// replica can never cover fails 412 stale_replica; on the primary an
// uncovered token fails immediately.
func TestConsistencyToken(t *testing.T) {
	_, phs, pc := newDurableServer(t, t.TempDir(), 0)
	if _, err := pc.Load(ordersData, false); err != nil {
		t.Fatalf("primary load: %v", err)
	}
	_, _, rc, _ := newFollower(t, phs.URL, t.TempDir(), Options{Workers: 1, StaleWait: 5 * time.Second})
	waitCaughtUp(t, pc, rc)

	// Read-your-writes across servers: append on the primary, immediately
	// read on the replica with the primary client's token. The replica may
	// not have applied the append yet; the token makes it wait.
	for i := 0; i < 5; i++ {
		if _, err := pc.Load(fmt.Sprintf("row Orders op%d c1\nrow Payments op%d\n", i, i), true); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		reader := NewClient(rc.Base(), "test")
		reader.SetVector(pc.Vector())
		qr, err := reader.Query("proj(0, Orders)", "sql", false, 0)
		if err != nil {
			t.Fatalf("read-after-write %d on replica: %v", i, err)
		}
		want := 2 + (i + 1) // o1, o2 plus the appends so far
		if len(qr.Results[0].Rows) != want {
			t.Fatalf("read %d saw %d orders, want %d (stale read slipped through)",
				i, len(qr.Results[0].Rows), want)
		}
	}

	// An uncoverable token times out with the machine-readable code.
	impatient := NewClient(rc.Base(), "test")
	impatient.SetVector(map[string]uint64{"Orders": 1 << 30})
	fast, _, fastC, _ := newFollower(t, phs.URL, "", Options{Workers: 1, StaleWait: 50 * time.Millisecond})
	_ = fast
	waitCaughtUp(t, pc, fastC)
	impatient = NewClient(fastC.Base(), "test")
	impatient.SetVector(map[string]uint64{"Orders": 1 << 30})
	_, err := impatient.Query("proj(0, Orders)", "sql", false, 0)
	var aerr *api.Error
	if !errors.As(err, &aerr) || aerr.Code != api.CodeStaleReplica {
		t.Fatalf("uncoverable token on replica: err = %v, want code %s", err, api.CodeStaleReplica)
	}

	// On the primary an uncovered token is an immediate 412 (no wait).
	onPrimary := NewClient(pc.Base(), "test")
	onPrimary.SetVector(map[string]uint64{"Orders": 1 << 30})
	start := time.Now()
	_, err = onPrimary.Query("proj(0, Orders)", "sql", false, 0)
	if !errors.As(err, &aerr) || aerr.Code != api.CodeStaleReplica {
		t.Fatalf("uncovered token on primary: err = %v, want code %s", err, api.CodeStaleReplica)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("primary blocked %v on an uncovered token instead of failing fast", d)
	}
}

// TestMemoryReplicaFollowsDurablePrimary: -follow works without a data
// directory — the follower applies in memory only and re-bootstraps on
// restart (here: just checks convergence and that status reports tailing).
func TestMemoryReplicaFollowsDurablePrimary(t *testing.T) {
	_, phs, pc := newDurableServer(t, t.TempDir(), 0)
	if _, err := pc.Load(ordersData, false); err != nil {
		t.Fatalf("primary load: %v", err)
	}
	_, _, rc, _ := newFollower(t, phs.URL, "", Options{Workers: 1})
	waitCaughtUp(t, pc, rc)
	want := answers(t, pc, "test", bootQueries)
	if got := answers(t, rc, "test", bootQueries); !reflect.DeepEqual(got, want) {
		t.Fatalf("memory replica answers differ:\nprimary %v\nreplica %v", want, got)
	}
}

// TestReplicaApplyRefusesDivergedVector: a tailed record whose logged
// version vector disagrees with what it replays to is errDiverged — the
// error followOnce answers with a re-bootstrap — and does not advance the
// applied sequence number, while a record carrying the vector its replay
// produces applies.
func TestReplicaApplyRefusesDivergedVector(t *testing.T) {
	srv := New(Options{Workers: 1})
	if _, err := srv.Preload("main", ordersData); err != nil {
		t.Fatal(err)
	}
	sess := srv.sessionFor("main")
	r := &replicator{s: srv, sessions: map[string]*followState{}}
	fs := &followState{name: "main", syncCh: make(chan struct{}, 1)}
	data := "row Payments o2\n"
	want := sess.db.Clone()
	if err := store.ApplyRecord(want, &store.Record{Op: store.OpAppend, Data: data}); err != nil {
		t.Fatal(err)
	}
	if err := r.apply(fs, sess, &store.Record{Seq: 1, Op: store.OpAppend, Data: data, Versions: want.Versions()}); err != nil {
		t.Fatalf("record with its own vector: %v", err)
	}
	if !maps.Equal(sess.db.Versions(), want.Versions()) {
		t.Fatalf("applied vector %v, want %v", sess.db.Versions(), want.Versions())
	}
	// The same append again replays to a newer vector than the one logged.
	err := r.apply(fs, sess, &store.Record{Seq: 2, Op: store.OpAppend, Data: data, Versions: want.Versions()})
	if !errors.Is(err, errDiverged) {
		t.Fatalf("record with a wrong vector: got %v, want errDiverged", err)
	}
	if got := sess.replSeq.Load(); got != 1 {
		t.Fatalf("diverged record moved the applied seq to %d, want 1", got)
	}
}

// TestReplicaApplyInstallsReplace: a tailed replace starts the session's
// caches afresh, as the primary's commit does. The new relations restart
// their version counters, so without it a result cached before the replace
// would be served for the new database under the same vector.
func TestReplicaApplyInstallsReplace(t *testing.T) {
	srv := New(Options{Workers: 1})
	if _, err := srv.Preload("test", ordersData); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL, "test")
	if _, err := c.Query(unpaid, "cert", false, 0); err != nil {
		t.Fatal(err)
	}
	paid := strings.Replace(ordersData, "row Payments o1", "row Payments o2", 1)
	rec := &store.Record{Seq: 1, Op: store.OpReplace, Data: paid}
	want := relation.NewDatabase()
	if err := store.ApplyRecord(want, rec); err != nil {
		t.Fatal(err)
	}
	rec.Versions = want.Versions()
	r := &replicator{s: srv, sessions: map[string]*followState{}}
	fs := &followState{name: "test", syncCh: make(chan struct{}, 1)}
	if err := r.apply(fs, srv.sessionFor("test"), rec); err != nil {
		t.Fatal(err)
	}
	qr, err := c.Query(unpaid, "cert", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := qr.Results[0].Rows; !reflect.DeepEqual(got, [][]string{{"o1"}}) {
		t.Fatalf("cert after a replicated replace = %v (cached %v), want [[o1]]", got, qr.Cached)
	}
}
