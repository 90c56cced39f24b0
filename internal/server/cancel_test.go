package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"incdb/internal/api"
)

// TestCancelledEnumerationReleasesSlot: a cert query over millions of
// worlds whose request context ends mid-flight must stop at its next poll,
// answer request_cancelled, count the cancellation and give its evaluation
// slot back.
func TestCancelledEnumerationReleasesSlot(t *testing.T) {
	s := New(Options{Workers: 2})
	h := s.Handler()
	post := func(ctx context.Context, path string, body any) *httptest.ResponseRecorder {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(data))).WithContext(ctx))
		return rec
	}

	// Four nulls in column v, whose class holds 36 constants, the query's
	// own and five fresh ones: 42^4 ≈ 3.1M worlds, and both branches of the
	// disjunction keep every null row a live candidate, so nothing ends the
	// enumeration early.
	var db strings.Builder
	db.WriteString("rel R k v\n")
	for i := 0; i < 36; i++ {
		fmt.Fprintf(&db, "row R k%d c%d\n", i, i)
	}
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&db, "row R n%d _%d\n", i, i+1)
	}
	if rec := post(context.Background(), "/v1/sessions/big/load", api.LoadRequest{Data: db.String()}); rec.Code != http.StatusOK {
		t.Fatalf("load: %d %s", rec.Code, rec.Body)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- post(ctx, "/v1/sessions/big/query", api.QueryRequest{
			Query: "proj(0, sel(or(eqc(1, 'x'), neqc(1, 'x')), R))", Proc: "cert", MaxWorlds: 1 << 24})
	}()
	// Mid-flight: the slot is held and worlds are being evaluated.
	for started := time.Now(); s.inflight.Load() == 0 || time.Since(started) < 20*time.Millisecond; {
		select {
		case rec := <-done:
			t.Fatalf("query finished before it could be cancelled: %d %s", rec.Code, rec.Body)
		case <-time.After(time.Millisecond):
		}
	}

	cancelled := time.Now()
	cancel()
	var rec *httptest.ResponseRecorder
	select {
	case rec = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled query did not return")
	}
	if took := time.Since(cancelled); took > 50*time.Millisecond {
		t.Errorf("cancelled query returned after %v, want within 50ms", took)
	}
	if got := api.DecodeError(rec.Code, rec.Body.Bytes()); got.Code != api.CodeRequestCancelled {
		t.Errorf("cancelled query answered %d %s, want %s", rec.Code, rec.Body, api.CodeRequestCancelled)
	}
	if n := s.inflight.Load(); n != 0 {
		t.Errorf("inflight = %d after cancellation, want 0", n)
	}
	metrics := httptest.NewRecorder()
	h.ServeHTTP(metrics, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if !strings.Contains(metrics.Body.String(), "incdb_query_cancelled_total 1") {
		t.Errorf("incdb_query_cancelled_total did not count the cancellation:\n%s", metrics.Body)
	}
}

// TestUnknownProcRefusedBeforeAdmission: an unknown procedure is a property
// of the request alone, so it is refused right after decode — not after the
// request queued for an evaluation slot and had its query parsed.
func TestUnknownProcRefusedBeforeAdmission(t *testing.T) {
	s := New(Options{Workers: 1, MaxInFlight: 1})
	h := s.Handler()
	post := func(ctx context.Context, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(ctx))
		return rec
	}
	if rec := post(context.Background(), "/v1/sessions/s/load", `{"data":"rel R a\nrow R x\n"}`); rec.Code != http.StatusOK {
		t.Fatalf("load: %d %s", rec.Code, rec.Body)
	}
	// Hold the only evaluation slot: anything that reaches admission waits.
	if aerr := s.acquire(context.Background()); aerr != nil {
		t.Fatalf("acquire: %v", aerr)
	}
	defer s.release()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	rec := post(ctx, "/v1/sessions/s/query", `{"query":"proj(0, R)","proc":"no-such-proc"}`)
	got := api.DecodeError(rec.Code, rec.Body.Bytes())
	if rec.Code != http.StatusUnprocessableEntity || got.Code != api.CodeBadQuery {
		t.Fatalf("unknown proc answered %d %s, want 422 %s", rec.Code, rec.Body, api.CodeBadQuery)
	}
	if !strings.Contains(got.Message, "want one of sql, naive, cert, inter, plus, poss, ctable-eager") {
		t.Errorf("message does not list the served procedures: %s", got.Message)
	}
	if ctx.Err() != nil {
		t.Errorf("the refusal waited out the client's timeout")
	}
}
