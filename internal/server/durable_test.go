package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"incdb/internal/core"
)

// allProcs is every evaluation procedure the crash-recovery acceptance
// compares across servers (the five paper procedures plus SQL and a ctable
// strategy for good measure).
var allProcs = []string{"sql", "naive", "cert", "inter", "plus", "poss", "ctable-eager"}

func newDurableServer(t *testing.T, dir string, snapshotBytes int64) (*Server, *httptest.Server, *Client) {
	t.Helper()
	srv := New(Options{Workers: 1, SnapshotBytes: snapshotBytes})
	if err := srv.EnableDurability(dir); err != nil {
		t.Fatalf("enable durability: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() { srv.Close() })
	return srv, hs, NewClient(hs.URL, "test")
}

// loadSeq is a randomized-but-seeded load sequence with appends, replaces,
// nulls and multiplicities across two sessions.
func loadSeq(rng *rand.Rand, n int) []struct {
	session, data string
	app           bool
} {
	var out []struct {
		session, data string
		app           bool
	}
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		sess := "s1"
		if rng.Intn(3) == 0 {
			sess = "s2"
		}
		app := seen[sess] && rng.Intn(4) != 0
		seen[sess] = true
		data := "rel R a b\nrel P a\n"
		if app {
			data = ""
		}
		rows := 1 + rng.Intn(3)
		for r := 0; r < rows; r++ {
			switch rng.Intn(3) {
			case 0:
				data += fmt.Sprintf("row R c%d _%d\n", rng.Intn(4), 1+rng.Intn(2))
			case 1:
				data += fmt.Sprintf("row R 'v %d' x *%d\n", rng.Intn(4), 1+rng.Intn(3))
			default:
				data += fmt.Sprintf("row P c%d\n", rng.Intn(4))
			}
		}
		out = append(out, struct {
			session, data string
			app           bool
		}{sess, data, app})
	}
	return out
}

// crashQueries: a certain-answer shape (difference — inside the Figure 2
// fragment, so Q⁺/Q? accept it too) and a null-exposing projection, so
// byte-identical answers also prove null identities (_k renderings)
// survived recovery.
var crashQueries = []string{"minus(proj(0, R), P)", "proj(1, R)"}

// bootQueries is the ordersData counterpart (same shapes over the example
// schema).
var bootQueries = []string{"minus(proj(0, Orders), Payments)", "proj(1, Orders)"}

// answers evaluates every query under every procedure for a session and
// returns the JSON-rendered resultsets, keyed by proc|query.
func answers(t *testing.T, c *Client, session string, queries []string) map[string]string {
	t.Helper()
	cs := NewClient(c.Base(), session)
	out := map[string]string{}
	for _, proc := range allProcs {
		for _, q := range queries {
			qr, err := cs.Query(q, proc, false, 0)
			if err != nil {
				t.Fatalf("session %s proc %s: %v", session, proc, err)
			}
			data, err := json.Marshal(qr.Results)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			out[proc+"|"+q] = string(data)
		}
	}
	return out
}

// sessionVersions returns name → relation version vectors per session.
func sessionVersions(t *testing.T, c *Client) map[string]map[string]uint64 {
	t.Helper()
	st, err := c.Status()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	out := map[string]map[string]uint64{}
	for _, s := range st.Sessions {
		v := map[string]uint64{}
		for _, rel := range s.Relations {
			v[rel.Name] = rel.Version
		}
		out[s.Name] = v
	}
	return out
}

// TestCrashRecoveryMatchesReference is the acceptance property: apply a
// randomized load sequence to a durable server and an identical in-memory
// reference, abandon the durable server at an arbitrary cut point (every
// acknowledged load is fsync'd, so abandonment after ack is exactly the
// SIGKILL-after-ack state), restart on the same data directory and check
// that every session's version vector and every evaluation procedure's
// answers are byte-identical to a reference server that replayed the same
// prefix and was never killed. Exercised both with snapshots disabled
// (pure WAL replay) and with a tiny threshold (snapshot + WAL tail).
func TestCrashRecoveryMatchesReference(t *testing.T) {
	for _, snapshotBytes := range []int64{0, 256} {
		rng := rand.New(rand.NewSource(42))
		seq := loadSeq(rng, 10)
		for _, cut := range []int{3, 7, len(seq)} {
			dir := t.TempDir()
			_, hs, c := newDurableServer(t, dir, snapshotBytes)

			ref := New(Options{Workers: 1})
			refHS := httptest.NewServer(ref.Handler())
			refC := NewClient(refHS.URL, "test")

			for _, ld := range seq[:cut] {
				for _, cl := range []*Client{c, refC} {
					if _, err := NewClient(cl.Base(), ld.session).Load(ld.data, ld.app); err != nil {
						t.Fatalf("load: %v", err)
					}
				}
			}
			// Run some queries so the durable server records warm keys (and
			// snapshots, when enabled, persist them).
			preAnswers := map[string]map[string]string{}
			for _, sess := range []string{"s1", "s2"} {
				if _, ok := sessionVersions(t, c)[sess]; ok {
					preAnswers[sess] = answers(t, c, sess, crashQueries)
				}
			}
			wantVers := sessionVersions(t, refC)

			// "SIGKILL": abandon the server without any shutdown.
			hs.Close()

			_, _, c2 := newDurableServer(t, dir, snapshotBytes)
			gotVers := sessionVersions(t, c2)
			if !reflect.DeepEqual(gotVers, wantVers) {
				t.Fatalf("snap=%d cut=%d: recovered versions %v, want %v", snapshotBytes, cut, gotVers, wantVers)
			}
			for sess, want := range preAnswers {
				got := answers(t, c2, sess, crashQueries)
				refGot := answers(t, refC, sess, crashQueries)
				for k := range want {
					if got[k] != refGot[k] {
						t.Fatalf("snap=%d cut=%d session %s %s:\nrecovered %s\nreference %s",
							snapshotBytes, cut, sess, k, got[k], refGot[k])
					}
					if got[k] != want[k] {
						t.Fatalf("snap=%d cut=%d session %s %s: pre-kill %s post-recovery %s",
							snapshotBytes, cut, sess, k, want[k], got[k])
					}
				}
			}
			refHS.Close()
		}
	}
}

// TestConcurrentDurableLoads hammers one durable session with concurrent
// appends and queries (run under -race), with a threshold low enough that
// snapshots and compactions interleave with the traffic; recovery must
// reproduce the final acknowledged state exactly.
func TestConcurrentDurableLoads(t *testing.T) {
	dir := t.TempDir()
	_, hs, c := newDurableServer(t, dir, 2048)
	if _, err := c.Load("rel R a b\nrel P a\nrow P c0\n", false); err != nil {
		t.Fatalf("load: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := NewClient(c.Base(), "test")
			for i := 0; i < 5; i++ {
				// One null in the whole session (every append call
				// allocates fresh nulls, and the exact certainty oracles
				// are exponential in their count).
				data := fmt.Sprintf("row R g%d i%d\n", g, i)
				if g == 0 && i == 0 {
					data += "row R gx _1\n"
				}
				if _, err := cl.Load(data, true); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if _, err := cl.Query("proj(0, R)", "sql", false, 0); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	want := answers(t, c, "test", crashQueries)
	wantVers := sessionVersions(t, c)
	hs.Close()

	_, _, c2 := newDurableServer(t, dir, 2048)
	if got := sessionVersions(t, c2); !reflect.DeepEqual(got, wantVers) {
		t.Fatalf("recovered versions %v, want %v", got, wantVers)
	}
	if got := answers(t, c2, "test", crashQueries); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered answers differ:\ngot  %v\nwant %v", got, want)
	}
}

// TestRecoveryWarmsPreparedPlans: after recovery from a snapshot carrying
// warm keys, the prepared-plan cache already holds what every plan-backed
// procedure's evaluation asks it for — the first repeated query of each is
// a hit with no new miss. Warm-up and evaluation are the same table rows.
func TestRecoveryWarmsPreparedPlans(t *testing.T) {
	dir := t.TempDir()
	_, hs, c := newDurableServer(t, dir, 1) // snapshot after every load
	if _, err := c.Load(ordersData, false); err != nil {
		t.Fatalf("load: %v", err)
	}
	const q = "minus(proj(0, Orders), Payments)" // inside the Figure 2 fragment, unlike unpaid
	type warmed struct {
		proc string
		bag  bool
		rows [][]string
	}
	var want []warmed
	for _, p := range core.Procs {
		if !p.Served || p.Plan == nil {
			continue
		}
		for _, bag := range []bool{false, true} {
			if bag && !p.Bag {
				continue
			}
			qr, err := c.Query(q, p.Name, bag, 0)
			if err != nil {
				t.Fatalf("query %s bag=%v: %v", p.Name, bag, err)
			}
			want = append(want, warmed{p.Name, bag, qr.Results[0].Rows})
		}
	}
	// The warm keys are persisted by the next snapshot, i.e. the next load.
	// o7 is paid immediately, so no procedure's unpaid answer changes.
	if _, err := c.Load("row Orders o7 c1\nrow Payments o7\n", true); err != nil {
		t.Fatalf("append: %v", err)
	}
	hs.Close()

	_, _, c2 := newDurableServer(t, dir, 1)
	before := sessionStatus(t, c2, "test").Cache
	if before.Entries == 0 {
		t.Fatalf("recovered session has no warmed prepared plans: %+v", before)
	}
	for _, w := range want {
		qr, err := c2.Query(q, w.proc, w.bag, 0)
		if err != nil {
			t.Fatalf("post-recovery %s bag=%v: %v", w.proc, w.bag, err)
		}
		if qr.Cached || !reflect.DeepEqual(qr.Results[0].Rows, w.rows) {
			t.Fatalf("post-recovery %s bag=%v = %v (cached %v), want %v evaluated", w.proc, w.bag, qr.Results[0].Rows, qr.Cached, w.rows)
		}
		after := sessionStatus(t, c2, "test").Cache
		if after.Hits <= before.Hits || after.Misses != before.Misses {
			t.Fatalf("first post-recovery %s bag=%v did not run on a warmed plan: cache %+v → %+v", w.proc, w.bag, before, after)
		}
		before = after
	}
}

// TestRecoveryDiscardsTornTail: garbage appended to a session WAL (the
// torn tail a crash mid-append leaves) is discarded; the acknowledged
// prefix survives.
func TestRecoveryDiscardsTornTail(t *testing.T) {
	dir := t.TempDir()
	_, hs, c := newDurableServer(t, dir, 0)
	if _, err := c.Load(ordersData, false); err != nil {
		t.Fatalf("load: %v", err)
	}
	want := answers(t, c, "test", bootQueries)
	hs.Close()

	wal := filepath.Join(dir, "sessions", "test", "wal.log")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x01, 0xff, 0xde, 0xad}); err != nil {
		t.Fatalf("append garbage: %v", err)
	}
	f.Close()

	_, _, c2 := newDurableServer(t, dir, 0)
	got := answers(t, c2, "test", bootQueries)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("torn tail changed answers:\ngot  %v\nwant %v", got, want)
	}
}

// TestSnapshotExportBootstrap: /v1/snapshot from a running server loads
// into a fresh (memory-only) server via the snapshot-load path with
// identical version vectors, null identities and answers — the replica
// bootstrap flow.
func TestSnapshotExportBootstrap(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Load(ordersData, false); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := c.Query(unpaid, "cert", false, 0); err != nil {
		t.Fatalf("query: %v", err)
	}
	export, err := c.Snapshot()
	if err != nil {
		t.Fatalf("snapshot export: %v", err)
	}

	replica := httptest.NewServer(New(Options{Workers: 1}).Handler())
	defer replica.Close()
	rc := NewClient(replica.URL, "test")
	if _, err := rc.Restore(export); err != nil {
		t.Fatalf("restore: %v", err)
	}
	wantVers := sessionVersions(t, c)
	gotVers := sessionVersions(t, rc)
	if !reflect.DeepEqual(gotVers, wantVers) {
		t.Fatalf("replica versions %v, want %v", gotVers, wantVers)
	}
	// proj(1, Orders) renders the null ⊥1 as _1; byte-identical answers
	// prove the null identities survived the bootstrap.
	wantAns := answers(t, c, "test", bootQueries)
	gotAns := answers(t, rc, "test", bootQueries)
	if !reflect.DeepEqual(gotAns, wantAns) {
		t.Fatalf("replica answers differ:\ngot  %v\nwant %v", gotAns, wantAns)
	}
	// The replica starts with warmed prepared plans from the export.
	if ss := sessionStatus(t, rc, "test"); ss.Cache.Entries == 0 {
		t.Fatalf("replica has no warmed plans: %+v", ss.Cache)
	}

	// Unknown sessions 404.
	resp, err := http.Get(c.Base() + "/v1/sessions/nope/snapshot")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("snapshot of unknown session: HTTP %d, want 404", resp.StatusCode)
	}
}
