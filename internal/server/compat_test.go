package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"

	"incdb/internal/api"
)

// postJSON posts a raw body and returns status + decoded-into.
func postJSON(t *testing.T, url string, body any, into any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("post %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if into != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, into); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, raw)
		}
	}
	return resp.StatusCode
}

// TestFlatRoutesGone: the pre-session flat routes are no longer served,
// and the body field that used to route them is an unknown field.
func TestFlatRoutesGone(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, path := range []string{"/v1/load", "/v1/query", "/v1/explain"} {
		if code := postJSON(t, srv.URL+path, api.QueryRequest{Query: unpaid}, nil); code != http.StatusNotFound {
			t.Errorf("POST %s: HTTP %d, want 404", path, code)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/snapshot?session=test")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/snapshot: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestErrorEnvelope: every non-2xx reply carries the uniform
// {"error":{"code","message"}} envelope with the right machine code, and
// the Go client surfaces it as *api.Error.
func TestErrorEnvelope(t *testing.T) {
	srv, c := newTestServer(t)
	base := srv.URL

	check := func(method, url, body, wantCode string, wantStatus int) {
		t.Helper()
		var resp *http.Response
		var err error
		if method == "GET" {
			resp, err = http.Get(url)
		} else {
			resp, err = http.Post(url, "application/json", bytes.NewReader([]byte(body)))
		}
		if err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s %s: HTTP %d, want %d\n%s", method, url, resp.StatusCode, wantStatus, raw)
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil {
			t.Fatalf("%s %s: body is not the error envelope: %s", method, url, raw)
		}
		if env.Error.Code != wantCode {
			t.Fatalf("%s %s: code %q, want %q", method, url, env.Error.Code, wantCode)
		}
		if env.Error.Message == "" {
			t.Fatalf("%s %s: empty error message", method, url)
		}
	}

	check("POST", base+"/v1/sessions/nope/query", `{"query":"proj(0, R)"}`,
		api.CodeSessionNotFound, http.StatusNotFound)
	check("GET", base+"/v1/sessions/nope/status", "",
		api.CodeSessionNotFound, http.StatusNotFound)
	check("GET", base+"/v1/sessions/nope/snapshot", "",
		api.CodeSessionNotFound, http.StatusNotFound)
	check("POST", base+"/v1/sessions/s/load", `{"data": 42}`,
		api.CodeBadRequest, http.StatusBadRequest)
	check("POST", base+"/v1/sessions/s/load", `{"session":"s","data":"rel R a"}`,
		api.CodeBadRequest, http.StatusBadRequest) // the path names the session; the body field is unknown
	check("POST", base+"/v1/sessions/s/load", `{"data":"nonsense"}`,
		api.CodeBadQuery, http.StatusBadRequest)

	if _, err := c.Load(ordersData, false); err != nil {
		t.Fatalf("load: %v", err)
	}
	check("POST", base+"/v1/sessions/test/query", `{"query":"proj(9, Orders)"}`,
		api.CodeBadQuery, http.StatusUnprocessableEntity)
	check("GET", base+"/v1/sessions/test/wal", "",
		api.CodeNotDurable, http.StatusConflict) // memory-only server
	check("GET", base+"/v1/sessions/test/wal?from=oops", "",
		api.CodeNotDurable, http.StatusConflict)

	// The Go client surfaces the typed error.
	_, err := NewClient(base, "ghost").Query("proj(0, R)", "sql", false, 0)
	var aerr *api.Error
	if !errors.As(err, &aerr) || aerr.Code != api.CodeSessionNotFound || aerr.Status != 404 {
		t.Fatalf("client error = %#v, want *api.Error{session_not_found, 404}", err)
	}
}

// TestWALEndpointParamErrors: a durable server validates the from
// parameter and 410s positions behind the snapshot.
func TestWALEndpointParamErrors(t *testing.T) {
	_, hs, c := newDurableServer(t, t.TempDir(), 1) // snapshot after every load
	if _, err := c.Load(ordersData, false); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := c.Load("row Payments o2\n", true); err != nil {
		t.Fatalf("append: %v", err)
	}
	resp, err := http.Get(hs.URL + "/v1/sessions/test/wal?from=bogus")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from: HTTP %d\n%s", resp.StatusCode, raw)
	}
	// Both loads are snapshot-compacted (threshold 1), so from=0 is behind
	// the snapshot: 410 wal_gap.
	resp, err = http.Get(hs.URL + "/v1/sessions/test/wal?from=0")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("compacted from: HTTP %d, want 410\n%s", resp.StatusCode, raw)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil || env.Error.Code != api.CodeWALGap {
		t.Fatalf("compacted from: body %s, want wal_gap envelope", raw)
	}
}
