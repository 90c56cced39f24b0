package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"incdb/internal/api"
)

// killServer is the test's kill -9: connections are severed first so an
// in-flight WAL stream (which Close would wait for) dies with them.
func killServer(hs *httptest.Server) {
	hs.CloseClientConnections()
	hs.Close()
}

// promoteURL promotes the server at base, returning the response error.
func promoteURL(base string, force bool) (*api.PromoteResponse, error) {
	return NewClient(base, "").Promote(force)
}

// TestPromoteFlipsFollowerToPrimary: promotion drains the follower, bumps
// the epoch, and flips it writable; the old primary is fenced read-only by
// the first request carrying the new epoch; promotion is idempotent on a
// primary and refused on a fenced server.
func TestPromoteFlipsFollowerToPrimary(t *testing.T) {
	psrv, phs, pc := newDurableServer(t, t.TempDir(), 0)
	if _, err := pc.Load(ordersData, false); err != nil {
		t.Fatalf("primary load: %v", err)
	}
	rsrv, rhs, rc, _ := newFollower(t, phs.URL, t.TempDir(), Options{Workers: 1})
	waitCaughtUp(t, pc, rc)

	pr, err := promoteURL(rhs.URL, false)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if pr.Epoch != 1 {
		t.Fatalf("promoted epoch = %d, want 1", pr.Epoch)
	}
	if seq, ok := pr.Sessions["test"]; !ok || seq == 0 {
		t.Fatalf("promotion reported no epoch record for session test: %+v", pr.Sessions)
	}
	if got := rsrv.role(); got != api.RolePrimary {
		t.Fatalf("promoted server role = %s, want %s", got, api.RolePrimary)
	}

	// The new primary accepts writes.
	if _, err := NewClient(rhs.URL, "test").Load("row Orders o9 c1\n", true); err != nil {
		t.Fatalf("load on promoted server: %v", err)
	}

	// The old primary still believes it is primary — until a request
	// carrying the new epoch reaches it and fences it.
	if got := psrv.role(); got != api.RolePrimary {
		t.Fatalf("old primary role = %s before observing the epoch, want %s", got, api.RolePrimary)
	}
	stale := NewClient(phs.URL, "test")
	stale.observeEpoch(pr.Epoch)
	_, err = stale.Load("row Orders oX c1\n", true)
	var aerr *api.Error
	if !errors.As(err, &aerr) || aerr.Code != api.CodeFencedStalePrimary {
		t.Fatalf("write to stale primary: err = %v, want code %s", err, api.CodeFencedStalePrimary)
	}
	if got := psrv.role(); got != api.RoleFenced {
		t.Fatalf("old primary role = %s after fencing, want %s", got, api.RoleFenced)
	}
	// Fenced means read-only, not dead: writes without the epoch are also
	// refused now, reads still answer.
	if _, err := pc.Load("row Orders oY c1\n", true); !errors.As(err, &aerr) || aerr.Code != api.CodeFencedStalePrimary {
		t.Fatalf("epochless write to fenced primary: err = %v, want code %s", err, api.CodeFencedStalePrimary)
	}
	if _, err := pc.Query("proj(0, Orders)", "sql", false, 0); err != nil {
		t.Fatalf("read on fenced primary: %v", err)
	}

	// Idempotent on the new primary; refused on the fenced old one.
	if pr2, err := promoteURL(rhs.URL, false); err != nil || pr2.Epoch != pr.Epoch {
		t.Fatalf("re-promote = (%+v, %v), want idempotent epoch %d", pr2, err, pr.Epoch)
	}
	if _, err := promoteURL(phs.URL, false); !errors.As(err, &aerr) || aerr.Code != api.CodeFencedStalePrimary {
		t.Fatalf("promote fenced server: err = %v, want code %s", err, api.CodeFencedStalePrimary)
	}
}

// TestPromoteNotCaughtUp: with its primary dead mid-stream the follower is
// "retrying" and not provably caught up — promotion without force is
// refused with not_caught_up (and readyz says not ready), force promotes
// anyway (and readyz recovers).
func TestPromoteNotCaughtUp(t *testing.T) {
	_, phs, pc := newDurableServer(t, t.TempDir(), 0)
	if _, err := pc.Load(ordersData, false); err != nil {
		t.Fatalf("primary load: %v", err)
	}
	_, rhs, rc, _ := newFollower(t, phs.URL, t.TempDir(), Options{Workers: 1})
	waitCaughtUp(t, pc, rc)
	killServer(phs)

	// Wait for the follower to notice its feed is gone.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := rc.Status()
		if err != nil {
			t.Fatalf("replica status: %v", err)
		}
		if st.Replication != nil && len(st.Replication.Sessions) > 0 &&
			st.Replication.Sessions[0].State == "retrying" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never entered retrying: %+v", st.Replication)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if ok, reason := ready(t, rhs.URL); ok {
		t.Fatalf("retrying follower reports ready")
	} else if reason == "" {
		t.Fatalf("not-ready follower gave no reason")
	}

	_, err := promoteURL(rhs.URL, false)
	var aerr *api.Error
	if !errors.As(err, &aerr) || aerr.Code != api.CodeNotCaughtUp {
		t.Fatalf("promote retrying follower: err = %v, want code %s", err, api.CodeNotCaughtUp)
	}
	pr, err := promoteURL(rhs.URL, true)
	if err != nil {
		t.Fatalf("promote force: %v", err)
	}
	if pr.Epoch != 1 {
		t.Fatalf("forced promotion epoch = %d, want 1", pr.Epoch)
	}
	if ok, _ := ready(t, rhs.URL); !ok {
		t.Fatalf("promoted server not ready")
	}
}

// ready probes /v1/readyz.
func ready(t *testing.T, base string) (bool, string) {
	t.Helper()
	var hr api.HealthResponse
	if err := NewClient(base, "").get(context.Background(), base, "/v1/readyz", &hr); err != nil {
		var aerr *api.Error
		if errors.As(err, &aerr) {
			return false, aerr.Message
		}
		t.Fatalf("readyz: %v", err)
	}
	return hr.Ok, hr.Reason
}

// TestFailoverClientNoAcknowledgedWriteLost is the failover acceptance: a
// failover-aware client appends through a randomized kill of the primary
// and a forced promotion of its follower, never changing endpoints by
// hand, and afterwards every row it was ever acknowledged is present —
// with read-your-writes intact across the switch. The test waits for the
// follower to catch up before the kill: replication is asynchronous, so
// acknowledged-but-never-shipped records are exactly what force promotion
// documents as lost; the no-loss guarantee is for shipped history.
func TestFailoverClientNoAcknowledgedWriteLost(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	_, phs, pc := newDurableServer(t, t.TempDir(), 0)
	_, rhs, rc, _ := newFollower(t, phs.URL, t.TempDir(), Options{Workers: 1})

	fc := NewFailoverClient([]string{phs.URL, rhs.URL}, "test")
	if _, err := fc.Load("rel Orders a b\nrel Payments a\n"+ordersRows(0), false); err != nil {
		t.Fatalf("initial load: %v", err)
	}
	acked := []int{0}
	before := 1 + rng.Intn(8)
	for i := 1; i <= before; i++ {
		if _, err := fc.Load(ordersRows(i), true); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		acked = append(acked, i)
	}

	waitCaughtUp(t, pc, rc)
	killServer(phs)
	if _, err := promoteURL(rhs.URL, true); err != nil {
		t.Fatalf("promote after kill: %v", err)
	}

	// The same client keeps writing: its first attempt hits the dead
	// primary, classification and re-discovery route it to the promoted one.
	after := 1 + rng.Intn(5)
	for i := before + 1; i <= before+after; i++ {
		if _, err := fc.Load(ordersRows(i), true); err != nil {
			t.Fatalf("append %d after failover: %v", i, err)
		}
		acked = append(acked, i)
	}

	// Read-your-writes through the same client: its token covers every ack.
	qr, err := fc.Query("proj(0, Orders)", "sql", false, 0)
	if err != nil {
		t.Fatalf("query after failover: %v", err)
	}
	got := map[string]bool{}
	for _, row := range qr.Results[0].Rows {
		got[row[0]] = true
	}
	for _, i := range acked {
		if !got[fmt.Sprintf("o%d", i)] {
			t.Fatalf("acknowledged row o%d lost across failover (have %v)", i, got)
		}
	}
	if fc.Base() != rhs.URL {
		t.Fatalf("client still prefers the dead primary %s", fc.Base())
	}
	if fc.Epoch() == 0 {
		t.Fatalf("client never observed the promotion epoch")
	}
}

// ordersRows renders one Orders+Payments append payload, distinct per i.
func ordersRows(i int) string {
	return fmt.Sprintf("row Orders o%d c1\nrow Payments o%d\n", i, i)
}

// TestRevivedStalePrimaryFencesAndRejoins: after a failover the old
// primary comes back on its data directory still believing it is primary.
// The first epoch-carrying write fences it; a failover client routes
// around it; and restarted as a follower of the new primary it converges
// byte-identically — the epoch record and post-failover appends replicate
// to it like any load.
func TestRevivedStalePrimaryFencesAndRejoins(t *testing.T) {
	pdir := t.TempDir()
	_, phs, pc := newDurableServer(t, pdir, 0)
	if _, err := pc.Load(ordersData, false); err != nil {
		t.Fatalf("primary load: %v", err)
	}
	_, rhs, rc, _ := newFollower(t, phs.URL, t.TempDir(), Options{Workers: 1})
	waitCaughtUp(t, pc, rc)
	killServer(phs)
	pr, err := promoteURL(rhs.URL, true)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	npc := NewClient(rhs.URL, "test")
	if _, err := npc.Load(ordersRows(100), true); err != nil {
		t.Fatalf("append on new primary: %v", err)
	}

	// Revive the old primary on its directory. It recovers at its old epoch
	// and claims primary — a split brain the epoch fence resolves.
	revived, revhs, revc := newDurableServer(t, pdir, 0)
	if revived.Epoch() >= pr.Epoch {
		t.Fatalf("revived primary recovered epoch %d, expected below %d", revived.Epoch(), pr.Epoch)
	}
	fc := NewFailoverClient([]string{revhs.URL, rhs.URL}, "test")
	fc.observeEpoch(pr.Epoch) // as a client that lived through the failover has
	if _, err := fc.Load(ordersRows(101), true); err != nil {
		t.Fatalf("failover client append: %v", err)
	}
	if got := revived.role(); got != api.RoleFenced {
		t.Fatalf("revived stale primary role = %s, want %s", got, api.RoleFenced)
	}
	var aerr *api.Error
	if _, err := revc.Load(ordersRows(102), true); !errors.As(err, &aerr) || aerr.Code != api.CodeFencedStalePrimary {
		t.Fatalf("direct write to revived primary: err = %v, want code %s", err, api.CodeFencedStalePrimary)
	}
	// The routed-around write landed on the real primary.
	qr, err := npc.Query("proj(0, Orders)", "sql", false, 0)
	if err != nil {
		t.Fatalf("query new primary: %v", err)
	}
	found := false
	for _, row := range qr.Results[0].Rows {
		found = found || row[0] == "o101"
	}
	if !found {
		t.Fatalf("failover client's write missing from the new primary")
	}
	killServer(revhs)
	revived.Close()

	// Rejoin: the old primary restarts as a follower of the new one and
	// converges — including the records it never saw (epoch bump, o100,
	// o101) — without re-bootstrapping, since its shipped history agrees.
	_, _, fr, _ := newFollower(t, rhs.URL, pdir, Options{Workers: 1})
	waitCaughtUp(t, npc, fr)
	want := answers(t, npc, "test", bootQueries)
	if got := answers(t, fr, "test", bootQueries); !reflect.DeepEqual(got, want) {
		t.Fatalf("rejoined old primary diverges:\nnew primary %v\nrejoined    %v", want, got)
	}
	st, err := fr.Status()
	if err != nil {
		t.Fatalf("rejoined status: %v", err)
	}
	if st.Epoch != pr.Epoch {
		t.Fatalf("rejoined follower epoch = %d, want %d", st.Epoch, pr.Epoch)
	}
}

// TestPromoteRacesInflightGroupCommit: promotion happens while a storm of
// concurrent appends is group-committing on the primary and streaming into
// the follower. The drain in promote must quiesce the mirror fsyncs so the
// epoch record lands on a consistent log: afterwards the promoted server's
// directory recovers byte-identically to its live state, at the promoted
// epoch.
func TestPromoteRacesInflightGroupCommit(t *testing.T) {
	_, phs, pc := newDurableServer(t, t.TempDir(), 0)
	if _, err := pc.Load("rel R a\nrow R seed\n", false); err != nil {
		t.Fatalf("seed load: %v", err)
	}
	rdir := t.TempDir()
	rsrv, rhs, rc, _ := newFollower(t, phs.URL, rdir, Options{Workers: 1})
	waitCaughtUp(t, pc, rc)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc := NewClient(phs.URL, "test")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := wc.Load(fmt.Sprintf("row R w%dr%d\n", w, i), true); err != nil {
					return // the storm is best-effort; promotion may cut it off
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond) // let the storm overlap the stream
	pr, err := promoteURL(rhs.URL, true)
	if err != nil {
		t.Fatalf("promote mid-storm: %v", err)
	}
	close(stop)
	wg.Wait()

	// The promoted server accepts writes at the new epoch.
	if _, err := NewClient(rhs.URL, "test").Load("row R post\n", true); err != nil {
		t.Fatalf("append after mid-storm promotion: %v", err)
	}
	live := answers(t, rc, "test", []string{"proj(0, R)"})

	// Its log is consistent: a restart on the directory recovers exactly
	// the live state, epoch included.
	rhs.Close()
	rsrv.Close()
	rec, rechs, recc := newDurableServer(t, rdir, 0)
	_ = rechs
	if got := answers(t, recc, "test", []string{"proj(0, R)"}); !reflect.DeepEqual(got, live) {
		t.Fatalf("recovered promoted server differs from live state:\nlive %v\nrec  %v", live, got)
	}
	if rec.Epoch() != pr.Epoch {
		t.Fatalf("recovered epoch = %d, want %d", rec.Epoch(), pr.Epoch)
	}
}

// TestHealthzReadyzAndDraining: healthz is pure liveness (200 even while
// draining); readyz and mutations flip to 503 shutting_down the moment the
// server starts draining for shutdown.
func TestHealthzReadyzAndDraining(t *testing.T) {
	srv, hs, c := newDurableServer(t, t.TempDir(), 0)
	if _, err := c.Load(ordersData, false); err != nil {
		t.Fatalf("load: %v", err)
	}
	resp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = (%v, %v), want 200", resp, err)
	}
	resp.Body.Close()
	if ok, reason := ready(t, hs.URL); !ok {
		t.Fatalf("serving primary not ready: %s", reason)
	}

	srv.draining.Store(true)
	defer srv.draining.Store(false)
	if ok, _ := ready(t, hs.URL); ok {
		t.Fatalf("draining server reports ready")
	}
	resp, err = http.Get(hs.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz = (%v, %v), want 200 (liveness is not readiness)", resp, err)
	}
	resp.Body.Close()
	var aerr *api.Error
	if _, err := c.Load("row Orders oZ c1\n", true); !errors.As(err, &aerr) || aerr.Code != api.CodeShuttingDown {
		t.Fatalf("load while draining: err = %v, want code %s", err, api.CodeShuttingDown)
	}
	if _, err := promoteURL(hs.URL, false); !errors.As(err, &aerr) || aerr.Code != api.CodeShuttingDown {
		t.Fatalf("promote while draining: err = %v, want code %s", err, api.CodeShuttingDown)
	}
	// Shed requests are not silent: both refusals above are counted per
	// code on the metrics registry and visible in the exposition.
	if got := srv.obs.errors.With(api.CodeShuttingDown).Value(); got != 2 {
		t.Fatalf("errors_total{shutting_down} = %d, want 2 (load + promote shed)", got)
	}
	if got := series(t, scrape(t, hs.URL), "incdb_errors_total",
		map[string]string{"code": api.CodeShuttingDown}); got != 2 {
		t.Fatalf("scraped errors_total{shutting_down} = %v, want 2", got)
	}
	if got := series(t, scrape(t, hs.URL), "incdb_draining", nil); got != 1 {
		t.Fatalf("incdb_draining = %v, want 1 while draining", got)
	}
	// Reads keep working through the drain (in-flight clients finish).
	if _, err := c.Query("proj(0, Orders)", "sql", false, 0); err != nil {
		t.Fatalf("query while draining: %v", err)
	}
}
