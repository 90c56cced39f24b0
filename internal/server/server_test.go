package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/api"
	"incdb/internal/certain"
	"incdb/internal/core"
	"incdb/internal/raparse"
)

const ordersData = `
rel Customers cid name
rel Orders oid cid
rel Payments oid
row Customers c1 'Ann'
row Customers c2 'Bob'
row Orders o1 c1
row Orders o2 _1
row Payments o1
`

// unpaid is a certain-answer workload: orders with no payment. o2 is
// certain regardless of how ⊥1 is resolved.
const unpaid = "proj(0, sel(not(in(0, Payments)), Orders))"

func newTestServer(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	srv := httptest.NewServer(New(Options{Workers: 2}).Handler())
	t.Cleanup(srv.Close)
	return srv, NewClient(srv.URL, "test")
}

func sessionStatus(t *testing.T, c *Client, name string) api.SessionStatus {
	t.Helper()
	st, err := c.Status()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	for _, s := range st.Sessions {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("session %q not in status %+v", name, st)
	return api.SessionStatus{}
}

func TestLoadQueryStatusRoundTrip(t *testing.T) {
	_, c := newTestServer(t)
	lr, err := c.Load(ordersData, false)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(lr.Relations) != 3 {
		t.Fatalf("load reported %d relations, want 3", len(lr.Relations))
	}

	qr, err := c.Query(unpaid, "cert", false, 0)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(qr.Results) != 1 {
		t.Fatalf("cert returned %d resultsets, want 1", len(qr.Results))
	}
	if want := [][]string{{"o2"}}; !reflect.DeepEqual(qr.Results[0].Rows, want) {
		t.Fatalf("cert rows = %v, want %v", qr.Results[0].Rows, want)
	}

	ss := sessionStatus(t, c, "test")
	if ss.Queries != 1 {
		t.Fatalf("status queries = %d, want 1", ss.Queries)
	}
	for _, rel := range ss.Relations {
		if rel.Name == "Orders" && rel.Rows != 2 {
			t.Fatalf("status Orders rows = %d, want 2", rel.Rows)
		}
	}
}

// TestRepeatedQueryHitsPreparedCache is the acceptance path: a repeated
// certain-answer query against an unchanged session database reuses the
// cached Prepared, observable via the /v1/status cache counters, with
// byte-identical results.
func TestRepeatedQueryHitsPreparedCache(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Load(ordersData, false); err != nil {
		t.Fatalf("load: %v", err)
	}
	first, err := c.Query(unpaid, "cert", false, 0)
	if err != nil {
		t.Fatalf("cold query: %v", err)
	}
	cold := sessionStatus(t, c, "test").Cache
	if cold.Misses == 0 {
		t.Fatalf("cold query did not miss the cache: %+v", cold)
	}
	// Re-spell the query each round (extra whitespace — same canonical
	// rendering, so the same prepared plan) so the byte-exact result cache
	// stays out of the way and the prepared-plan path itself is exercised.
	for i := 0; i < 3; i++ {
		respelled := strings.Replace(unpaid, "proj(0,", "proj( 0,"+strings.Repeat(" ", i+1), 1)
		again, err := c.Query(respelled, "cert", false, 0)
		if err != nil {
			t.Fatalf("warm query %d: %v", i, err)
		}
		if again.Cached {
			t.Fatalf("respelled query %d must not hit the result cache", i)
		}
		if !reflect.DeepEqual(again.Results, first.Results) {
			t.Fatalf("warm result differs: %+v vs %+v", again.Results, first.Results)
		}
	}
	warm := sessionStatus(t, c, "test").Cache
	if warm.Hits == 0 {
		t.Fatalf("warm queries did not hit the cache: %+v", warm)
	}
	if warm.Misses != cold.Misses {
		t.Fatalf("warm queries missed: cold %+v warm %+v", cold, warm)
	}
	if warm.Invalidations != 0 {
		t.Fatalf("no mutation happened, yet invalidations = %d", warm.Invalidations)
	}
}

// TestResultCache: a byte-identical repeated query is answered from the
// oracle result cache (Cached flag, hit counter) without touching the
// prepared-plan cache; a mutation moves the version vector and the next
// evaluation repopulates it.
func TestResultCache(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Load(ordersData, false); err != nil {
		t.Fatalf("load: %v", err)
	}
	first, err := c.Query(unpaid, "cert", false, 0)
	if err != nil {
		t.Fatalf("cold query: %v", err)
	}
	if first.Cached {
		t.Fatalf("cold query reported cached")
	}
	prepBefore := sessionStatus(t, c, "test").Cache
	again, err := c.Query(unpaid, "cert", false, 0)
	if err != nil {
		t.Fatalf("repeat query: %v", err)
	}
	if !again.Cached {
		t.Fatalf("byte-identical repeat did not hit the result cache")
	}
	if !reflect.DeepEqual(again.Results, first.Results) {
		t.Fatalf("cached result differs: %+v vs %+v", again.Results, first.Results)
	}
	ss := sessionStatus(t, c, "test")
	if ss.ResultCache.Hits != 1 || ss.ResultCache.Entries == 0 {
		t.Fatalf("result cache counters: %+v", ss.ResultCache)
	}
	if ss.Cache.Hits != prepBefore.Hits || ss.Cache.Misses != prepBefore.Misses {
		t.Fatalf("result-cache hit touched the prepared-plan cache: %+v -> %+v", prepBefore, ss.Cache)
	}
	// Same query under a different procedure must not alias.
	other, err := c.Query(unpaid, "sql", false, 0)
	if err != nil {
		t.Fatalf("sql query: %v", err)
	}
	if other.Cached {
		t.Fatalf("different procedure served from the cert result entry")
	}
	// A mutation moves the version vector: the stale entry is unreachable.
	if _, err := c.Load("row Orders o9 c1\nrow Payments o9", true); err != nil {
		t.Fatalf("append: %v", err)
	}
	after, err := c.Query(unpaid, "cert", false, 0)
	if err != nil {
		t.Fatalf("post-mutation query: %v", err)
	}
	if after.Cached {
		t.Fatalf("mutated session served a stale cached result")
	}
	if !reflect.DeepEqual(after.Results, first.Results) {
		t.Fatalf("post-mutation certain answers changed: %+v", after.Results)
	}
}

// TestAppendAdvancesExactlyAffectedEntries: appending rows to a relation
// advances the cached plans reading it — and only those, and drops none —
// and subsequent queries see the new data.
func TestAppendAdvancesExactlyAffectedEntries(t *testing.T) {
	hs, c := newTestServer(t)
	// Four orders and four payments: one more of each stays inside the
	// relations' size classes, which the prepared-plan cache key folds in,
	// so the lookup after the append finds the entry.
	if _, err := c.Load(ordersData+"row Orders o4 c1\nrow Orders o5 c2\nrow Payments o4\nrow Payments o5\nrow Payments o9\n", false); err != nil {
		t.Fatalf("load: %v", err)
	}
	// Warm two entries: one reading Orders+Payments, one reading Customers.
	if _, err := c.Query(unpaid, "cert", false, 0); err != nil {
		t.Fatalf("warm unpaid: %v", err)
	}
	customers := "proj(0, Customers)"
	if _, err := c.Query(customers, "naive", false, 0); err != nil {
		t.Fatalf("warm customers: %v", err)
	}
	if _, err := c.Query(customers, "naive", false, 0); err != nil {
		t.Fatalf("re-warm customers: %v", err)
	}
	before := sessionStatus(t, c, "test").Cache

	// A new order arrives and is paid immediately: Orders and Payments
	// both mutate mid-session; the certain unpaid set stays {o2}.
	if _, err := c.Load("row Orders o3 c2\nrow Payments o3", true); err != nil {
		t.Fatalf("append: %v", err)
	}
	qr, err := c.Query(unpaid, "cert", false, 0)
	if err != nil {
		t.Fatalf("post-mutation query: %v", err)
	}
	if want := [][]string{{"o2"}}; !reflect.DeepEqual(qr.Results[0].Rows, want) {
		t.Fatalf("after paid o3, unpaid cert = %v, want %v", qr.Results[0].Rows, want)
	}
	mid := sessionStatus(t, c, "test").Cache
	// The entry did not serve as it stood, nor was it dropped or compiled
	// again: it was advanced across the appended rows — a hit and an advance.
	if mid.Advances != before.Advances+1 || mid.Hits != before.Hits+1 || mid.Misses != before.Misses || mid.Invalidations != 0 {
		t.Fatalf("append did not advance the one affected entry: before %+v after %+v", before, mid)
	}
	if got := series(t, scrape(t, hs.URL), "incdb_prep_cache_advances_total", map[string]string{"session": "test"}); got != float64(mid.Advances) {
		t.Fatalf("prep_cache_advances_total = %v, status says %d", got, mid.Advances)
	}

	// The Customers entry was untouched: querying it again must hit.
	if _, err := c.Query(customers, "naive", false, 0); err != nil {
		t.Fatalf("customers after mutation: %v", err)
	}
	after := sessionStatus(t, c, "test").Cache
	if after.Hits <= mid.Hits {
		t.Fatalf("unaffected entry did not hit after mutation: %+v -> %+v", mid, after)
	}
	if after.Invalidations != mid.Invalidations || after.Advances != mid.Advances {
		t.Fatalf("unaffected entry was invalidated or advanced: %+v -> %+v", mid, after)
	}
}

// TestConcurrentQueriesShareCache runs many concurrent requests over one
// session (run under -race): results must all be byte-identical to the
// serial answer while sharing one prepared-plan cache.
func TestConcurrentQueriesShareCache(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Load(ordersData, false); err != nil {
		t.Fatalf("load: %v", err)
	}
	want, err := c.Query(unpaid, "cert", false, 0)
	if err != nil {
		t.Fatalf("reference query: %v", err)
	}

	var wg sync.WaitGroup
	procs := []string{"cert", "sql", "naive", "inter"}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				proc := procs[(g+i)%len(procs)]
				qr, err := c.Query(unpaid, proc, false, 0)
				if err != nil {
					t.Errorf("concurrent %s: %v", proc, err)
					return
				}
				if proc == "cert" && !reflect.DeepEqual(qr.Results, want.Results) {
					t.Errorf("concurrent cert differs: %+v", qr.Results)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := sessionStatus(t, c, "test").Cache
	if st.Hits == 0 {
		t.Fatalf("concurrent load shared no prepared state: %+v", st)
	}
}

// TestConcurrentMutationAndQueries interleaves appends with queries (run
// under -race): every response must be internally consistent — the unpaid
// answer shrinks monotonically as payments arrive, and no request may
// observe a torn database.
func TestConcurrentMutationAndQueries(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Load(ordersData, false); err != nil {
		t.Fatalf("load: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := c.Load(fmt.Sprintf("row Orders ox%d c1\nrow Payments ox%d", i, i), true); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			qr, err := c.Query(unpaid, "cert", false, 0)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			// Every paid order appears with its payment in one append, so
			// the certain unpaid set is always exactly {o2}.
			if len(qr.Results[0].Rows) != 1 || qr.Results[0].Rows[0][0] != "o2" {
				t.Errorf("query %d saw torn state: %v", i, qr.Results[0].Rows)
				return
			}
		}
	}()
	wg.Wait()
}

// TestAllProcs makes the procedure table the wire contract: every served
// row answers exactly what core.Run computes on a freshly parsed copy of
// the database (and, for the direct evaluations, what the reference
// interpreter computes), under set semantics and — where the row honours it
// — bag semantics; rows that are not served are refused.
func TestAllProcs(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Load(ordersData, false); err != nil {
		t.Fatalf("load: %v", err)
	}
	db, err := raparse.ParseDatabase(strings.NewReader(ordersData))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	render := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return string(data)
	}
	for _, text := range []string{"minus(proj(0, Orders), Payments)", "union(proj(0, Orders), Payments)"} {
		q, err := raparse.ParseQuery(text)
		if err != nil {
			t.Fatalf("parse %s: %v", text, err)
		}
		for i := range core.Procs {
			p := &core.Procs[i]
			if !p.Served {
				var aerr *api.Error
				if _, err := c.Query(text, p.Name, false, 0); !errors.As(err, &aerr) || aerr.Code != api.CodeBadQuery {
					t.Fatalf("proc %s is not served but was not refused: %v", p.Name, err)
				}
				continue
			}
			for _, bag := range []bool{false, true} {
				if bag && !p.Bag {
					continue
				}
				qr, err := c.Query(text, p.Name, bag, 0)
				if err != nil {
					t.Fatalf("proc %s bag=%v: %v", p.Name, bag, err)
				}
				rels, err := core.Run(p, db, q, bag, certain.Options{})
				if err != nil {
					t.Fatalf("core.Run %s bag=%v: %v", p.Name, bag, err)
				}
				var want []api.Resultset
				for i, r := range rels {
					want = append(want, resultset(p.Labels[i], r.Relation()))
				}
				if got := render(qr.Results); got != render(want) {
					t.Fatalf("proc %s bag=%v on %s: wire answer %s, core.Run %s", p.Name, bag, text, got, render(want))
				}
				if !p.Bag {
					continue
				}
				_, mode, _ := p.Plan(q, db)
				interp := algebra.EvalInterp(db, q, mode)
				if bag {
					interp = algebra.EvalBagInterp(db, q, mode)
				}
				if got, want := render(qr.Results[0]), render(resultset(p.Name, interp)); got != want {
					t.Fatalf("proc %s bag=%v on %s: wire answer %s, interpreter %s", p.Name, bag, text, got, want)
				}
			}
		}
	}
}

func TestExplainEndpointSharesPlanRendering(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Load(ordersData, false); err != nil {
		t.Fatalf("load: %v", err)
	}
	er, err := c.Explain(unpaid, true, false)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if er.Plan == nil || er.Plan.Physical == nil {
		t.Fatalf("explain returned no structured plan: %+v", er)
	}
	if !strings.Contains(er.Text, "physical:") {
		t.Fatalf("explain text missing physical tree:\n%s", er.Text)
	}
	// The IN subquery must carry the semi-join dedup, visible in both
	// renderings.
	if !strings.Contains(er.Text, "distinct (semi-join dedup)") {
		t.Fatalf("explain text missing semi-join dedup:\n%s", er.Text)
	}
	data, _ := json.Marshal(er.Plan)
	if !strings.Contains(string(data), "distinct (semi-join dedup)") {
		t.Fatalf("structured plan missing semi-join dedup:\n%s", data)
	}
}

func TestErrors(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Query("proj(0, R)", "sql", false, 0); err == nil {
		t.Fatal("query against unknown session did not fail")
	}
	if _, err := c.Load("nonsense line", false); err == nil {
		t.Fatal("bad load did not fail")
	}
	// A failed first load must not leave a phantom session behind.
	if st, err := c.Status(); err != nil || len(st.Sessions) != 0 {
		t.Fatalf("failed load left sessions: %+v (err %v)", st.Sessions, err)
	}
	if _, err := c.Load(ordersData, false); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := c.Query("proj(9, Orders)", "sql", false, 0); err == nil {
		t.Fatal("invalid query did not fail")
	}
	if _, err := c.Query(unpaid, "no-such-proc", false, 0); err == nil {
		t.Fatal("unknown proc did not fail")
	}
	if _, err := c.Load("rel Orders a b c", true); err == nil {
		t.Fatal("arity-clashing append did not fail")
	}
}

// TestOverflowingSpaceIsRefused: R has 15 constants and S 16 nulls, and
// R − S compares the two columns, so they form one class: cert ranges every
// null over its 15 constants and 17 fresh ones, 32^16 = 2^80 valuations, an
// int product that wraps to zero. Even under the largest max_worlds the
// query must be refused, not answered with every constant of R after one
// world.
func TestOverflowingSpaceIsRefused(t *testing.T) {
	_, c := newTestServer(t)
	var data strings.Builder
	data.WriteString("rel R a\nrel S a\n")
	for i := 0; i < 15; i++ {
		fmt.Fprintf(&data, "row R c%d\n", i)
	}
	for i := 1; i <= 16; i++ {
		fmt.Fprintf(&data, "row S _%d\n", i)
	}
	if _, err := c.Load(data.String(), false); err != nil {
		t.Fatalf("load: %v", err)
	}
	qr, err := c.Query("minus(R, S)", "cert", false, 1<<62)
	if err == nil || !strings.Contains(err.Error(), "exceeds MaxWorlds") {
		t.Fatalf("query = %+v, %v; want an exceeds-MaxWorlds error", qr, err)
	}
}

// TestTypedSpaceAnswersUnderMaxWorlds: R's status column holds A, B, C and
// two nulls, and the tautology compares it with A only, so cert ranges each
// null over its class's three constants and three fresh ones: 6^2 = 36
// worlds, where the shared range of all 35 constants and three fresh ones
// holds 38^2 = 1444. A max_worlds between the two now gets the exact answer
// with 36 worlds (plus the base run); one below the typed count is still
// refused with the same error.
func TestTypedSpaceAnswersUnderMaxWorlds(t *testing.T) {
	_, c := newTestServer(t)
	var data strings.Builder
	data.WriteString("rel R k s\n")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&data, "row R k%d %c\n", i, 'A'+i%3)
	}
	data.WriteString("row R n0 _1\nrow R n1 _2\n")
	if _, err := c.Load(data.String(), false); err != nil {
		t.Fatalf("load: %v", err)
	}
	const q = "proj(0, sel(or(eqc(1, 'A'), neqc(1, 'A')), R))"
	qr, err := c.Query(q, "cert", false, 100)
	if err != nil {
		t.Fatalf("cert under max_worlds 100: %v", err)
	}
	if qr.Worlds != 36+1 || len(qr.Results[0].Rows) != 32 {
		t.Errorf("cert = %d rows over %d worlds, want all 32 keys over 36 worlds and the base run", len(qr.Results[0].Rows), qr.Worlds)
	}
	var apiErr *api.Error
	qr, err = c.Query(q, "cert", false, 35)
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity || !strings.Contains(err.Error(), "exceeds MaxWorlds") {
		t.Fatalf("cert under max_worlds 35 = %+v, %v; want a 422 exceeds-MaxWorlds error", qr, err)
	}
}

// TestAppendIsAtomic: a payload that fails mid-parse must leave the
// session database untouched, so the client can fix it and re-post
// without duplicating the valid prefix.
func TestAppendIsAtomic(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Load(ordersData, false); err != nil {
		t.Fatalf("load: %v", err)
	}
	before := sessionStatus(t, c, "test")
	bad := "row Orders o9 c1\nrow Payments o9\nrow Nope x\n"
	if _, err := c.Load(bad, true); err == nil {
		t.Fatal("append with an unknown relation did not fail")
	}
	after := sessionStatus(t, c, "test")
	if !reflect.DeepEqual(after.Relations, before.Relations) {
		t.Fatalf("failed append mutated the database:\nbefore %+v\nafter  %+v",
			before.Relations, after.Relations)
	}
	// Re-posting the fixed payload applies exactly once.
	if _, err := c.Load("row Orders o9 c1\nrow Payments o9\n", true); err != nil {
		t.Fatalf("fixed append: %v", err)
	}
	for _, rel := range sessionStatus(t, c, "test").Relations {
		if rel.Name == "Orders" && rel.Rows != 3 {
			t.Fatalf("Orders rows = %d after retry, want 3", rel.Rows)
		}
	}
}

// TestSessionsAreIsolated: two sessions with the same relation names do
// not share data or cache entries.
func TestSessionsAreIsolated(t *testing.T) {
	srv, a := newTestServer(t)
	b := NewClient(srv.URL, "other")
	if _, err := a.Load(ordersData, false); err != nil {
		t.Fatalf("load a: %v", err)
	}
	if _, err := b.Load(ordersData+"row Payments o2\n", false); err != nil {
		t.Fatalf("load b: %v", err)
	}
	qa, err := a.Query(unpaid, "cert", false, 0)
	if err != nil {
		t.Fatalf("query a: %v", err)
	}
	qb, err := b.Query(unpaid, "cert", false, 0)
	if err != nil {
		t.Fatalf("query b: %v", err)
	}
	if len(qa.Results[0].Rows) != 1 || len(qb.Results[0].Rows) != 0 {
		t.Fatalf("sessions not isolated: a=%v b=%v", qa.Results[0].Rows, qb.Results[0].Rows)
	}
}
