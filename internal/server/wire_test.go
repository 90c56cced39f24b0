package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"incdb/internal/api"
	"incdb/internal/certain"
	"incdb/internal/core"
	"incdb/internal/raparse"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// resultset is the reference renderer of one relation for the wire — what
// the server built and handed to encoding/json before api.AppendResults:
// deterministic row order, values in the database text format (nulls as
// _k), multiplicities only when some row's differs from one.
func resultset(name string, r *relation.Relation) api.Resultset {
	out := api.Resultset{Name: name, Columns: append([]string(nil), r.Attrs()...), Rows: [][]string{}}
	var mults []int
	hasMult := false
	r.Each(func(t value.Tuple, m int) {
		row := make([]string, len(t))
		for i, v := range t {
			if v.IsNull() {
				row[i] = "_" + strconv.FormatUint(v.NullID(), 10)
			} else {
				row[i] = v.ConstVal()
			}
		}
		out.Rows = append(out.Rows, row)
		mults = append(mults, m)
		if m != 1 {
			hasMult = true
		}
	})
	if hasMult {
		out.Mults = mults
	}
	return out
}

// escapesData is a relation whose constants need JSON escaping: a quote, a
// backslash, a newline, a tab, HTML-significant bytes, non-ASCII text.
const escapesData = `
rel Odd v
row Odd 'say "hi"'
row Odd 'back\\slash'
row Odd 'two\nlines'
row Odd 'tab\there'
row Odd '<a href="x">&amp;</a>'
row Odd 'café ⊥ 東京'
row Odd _7
`

// TestWireBytesMatchEncodingJSON: the query response is encoded by hand, once
// per answer, and its bytes are kept by the result cache. For every served
// procedure × bag over TestAllProcs's corpus plus constants that need
// escaping, the raw body of a miss and of the hit that follows must be
// byte for byte encoding/json's encoding of the same response built with
// the reference renderer.
func TestWireBytesMatchEncodingJSON(t *testing.T) {
	srv, c := newTestServer(t)
	data := ordersData + escapesData
	if _, err := c.Load(data, false); err != nil {
		t.Fatalf("load: %v", err)
	}
	db, err := raparse.ParseDatabase(strings.NewReader(data))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, text := range []string{"minus(proj(0, Orders), Payments)", "union(proj(0, Orders), Payments)", "union(Odd, proj(0, Customers))"} {
		q, err := raparse.ParseQuery(text)
		if err != nil {
			t.Fatalf("parse %s: %v", text, err)
		}
		for i := range core.Procs {
			p := &core.Procs[i]
			for _, bag := range []bool{false, true} {
				if !p.Served || bag && !p.Bag {
					continue
				}
				rels, err := core.Run(p, db, q, bag, certain.Options{})
				if err != nil {
					t.Fatalf("core.Run %s bag=%v: %v", p.Name, bag, err)
				}
				for _, hit := range []bool{false, true} {
					req, _ := json.Marshal(api.QueryRequest{Query: text, Proc: p.Name, Bag: bag})
					resp, err := http.Post(srv.URL+"/v1/sessions/test/query", "application/json", bytes.NewReader(req))
					if err != nil {
						t.Fatalf("%s bag=%v on %s: %v", p.Name, bag, text, err)
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Fatalf("%s bag=%v on %s: status %d, %v: %s", p.Name, bag, text, resp.StatusCode, err, body)
					}
					// The envelope's own fields (timing, vector, counters) come
					// from the body; the results from the reference.
					var want api.QueryResponse
					if err := json.Unmarshal(body, &want); err != nil {
						t.Fatalf("%s bag=%v on %s: body does not decode: %v\n%s", p.Name, bag, text, err, body)
					}
					if want.Cached != hit {
						t.Fatalf("%s bag=%v on %s: cached=%v, want %v", p.Name, bag, text, want.Cached, hit)
					}
					want.Results = make([]api.Resultset, len(rels))
					for i, r := range rels {
						want.Results[i] = resultset(p.Labels[i], r.Relation())
					}
					var buf bytes.Buffer
					enc := json.NewEncoder(&buf)
					enc.SetEscapeHTML(false)
					if err := enc.Encode(want); err != nil {
						t.Fatalf("encode: %v", err)
					}
					if !bytes.Equal(body, buf.Bytes()) {
						t.Fatalf("%s bag=%v on %s (hit=%v):\nwire          %s\nencoding/json %s", p.Name, bag, text, hit, body, buf.Bytes())
					}
				}
			}
		}
	}
}

// TestResponsesCarryContentLength: JSON responses are encoded before they
// are written, so one larger than net/http's 4 KB buffer is not chunked, and
// a body that fails to encode is a 500 envelope rather than a cut-off 200.
func TestResponsesCarryContentLength(t *testing.T) {
	srv, c := newTestServer(t)
	var data strings.Builder
	data.WriteString("rel Big k v\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&data, "row Big k%d 'value %d'\n", i, i)
	}
	if _, err := c.Load(data.String(), false); err != nil {
		t.Fatalf("load: %v", err)
	}
	query, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/sessions/test/query", strings.NewReader(`{"query":"Big"}`))
	status, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/status", nil)
	for _, req := range []*http.Request{query, query, status} {
		if req.GetBody != nil {
			req.Body, _ = req.GetBody()
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", req.Method, req.URL.Path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d, %v", req.Method, req.URL.Path, resp.StatusCode, err)
		}
		if req == query && len(body) <= 4096 {
			t.Fatalf("query body is %d bytes; the test needs one over 4 KB", len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s %s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
				req.Method, req.URL.Path, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	if got := api.DecodeError(rec.Code, rec.Body.Bytes()); rec.Code != http.StatusInternalServerError || got.Code != api.CodeInternal {
		t.Fatalf("unencodable body answered %d %+v, want a 500 internal envelope", rec.Code, got)
	}
}
