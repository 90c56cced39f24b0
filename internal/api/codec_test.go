package api

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"incdb/internal/relation"
	"incdb/internal/value"
)

// referenceResults renders relations through []Resultset, the way the server
// did before the codec: AppendResults must write exactly what encoding/json
// writes for this.
func referenceResults(labels []string, rels []*relation.Relation) []Resultset {
	out := make([]Resultset, len(rels))
	for i, r := range rels {
		rs := Resultset{Name: labels[i], Columns: append([]string(nil), r.Attrs()...), Rows: [][]string{}}
		var mults []int
		bag := false
		r.Each(func(t value.Tuple, m int) {
			row := make([]string, len(t))
			for j, v := range t {
				if v.IsNull() {
					row[j] = "_" + strconv.FormatUint(v.NullID(), 10)
				} else {
					row[j] = v.ConstVal()
				}
			}
			rs.Rows = append(rs.Rows, row)
			mults = append(mults, m)
			bag = bag || m != 1
		})
		if bag {
			rs.Mults = mults
		}
		out[i] = rs
	}
	return out
}

// encodeJSON is what the server wrote before the codec.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	return buf.Bytes()
}

// fuzzResponse builds a response from fuzz input. text is "|"-separated:
// session, proc, query, trace ID, then cells; a "#" cell starts another
// relation, whose first arity cells are its column names and the rest its
// tuples ("_k" is the null ⊥k). bits picks the remaining fields.
func fuzzResponse(text string, arity uint8, bits uint64, elapsed float64) (*QueryResponse, []string, []*relation.Relation) {
	parts := strings.Split(text, "|")
	for len(parts) < 4 {
		parts = append(parts, "")
	}
	resp := &QueryResponse{
		Session: parts[0], Proc: parts[1], Query: parts[2], TraceID: parts[3],
		ElapsedMs:   elapsed,
		Cached:      bits&1 != 0,
		Worlds:      int64(bits>>1&0xff) - 8,
		FrozenReuse: int64(bits >> 9 & 0xf),
		Epoch:       bits >> 60,
	}
	for k := 0; k < int(bits>>13&3); k++ {
		if resp.Versions == nil {
			resp.Versions = map[string]uint64{}
		}
		resp.Versions[parts[k%4]+strconv.Itoa(k)] = bits>>20 + uint64(k)
	}
	n := int(arity % 4)
	var labels []string
	var rels []*relation.Relation
	for g, group := range strings.Split(strings.Join(parts[4:], "|"), "|#|") {
		cells := strings.Split(group, "|")
		for len(cells) < n {
			cells = append(cells, "")
		}
		r := relation.New(parts[2]+strconv.Itoa(g), cells[:n]...)
		var tuples [][]string
		if n == 0 {
			tuples = [][]string{{}}
		}
		for rest := cells[n:]; n > 0 && len(rest) >= n; rest = rest[n:] {
			tuples = append(tuples, rest[:n])
		}
		for j, cs := range tuples {
			t := make(value.Tuple, n)
			for c, s := range cs {
				t[c] = value.Const(s)
				if id, err := strconv.ParseUint(strings.TrimPrefix(s, "_"), 10, 64); err == nil && strings.HasPrefix(s, "_") {
					t[c] = value.Null(id)
				}
			}
			m := 1
			if bits&(1<<15) != 0 {
				m += int(bits >> (16 + j%40) & 3)
			}
			r.AddMult(t, m)
		}
		labels = append(labels, parts[1]+strconv.Itoa(g))
		rels = append(rels, r)
	}
	return resp, labels, rels
}

// mutate derives a body the encoder never writes from one it did.
func mutate(t *testing.T, body []byte, resp *QueryResponse, mutation uint16) []byte {
	arg := int(mutation / 10)
	switch mutation % 10 {
	case 1: // truncated
		return body[:arg%len(body)]
	case 2: // an unknown key
		return append([]byte(`{"zz":[1,{"a":null}],`), body[1:]...)
	case 3: // reordered (sorted) keys, HTML-escaped
		var m map[string]json.RawMessage
		if json.Unmarshal(body, &m) != nil {
			return body
		}
		out, _ := json.Marshal(m)
		return out
	case 4: // whitespace between tokens
		return bytes.ReplaceAll(body, []byte(`,"`), []byte(", \n\t\""))
	case 5: // \u escapes, in keys and values alike
		return bytes.ReplaceAll(body, []byte("o"), []byte(`\u006f`))
	case 6: // "rows":null
		if len(resp.Results) > 0 {
			resp.Results[0].Rows = nil
		}
		return encodeJSON(t, resp)
	case 7: // "results":null
		resp.Results = nil
		return encodeJSON(t, resp)
	case 8: // one corrupted byte
		out := bytes.Clone(body)
		out[arg%len(out)] ^= byte(arg>>3 | 1)
		return out
	case 9: // a value encoding/json refuses for its field's type, mid-decode
		return append([]byte(`{"session":"s","worlds":1.5,"epoch":-1,"proc":`), body[len(`{"session":`):]...)
	}
	return body
}

// checkDecode requires DecodeQueryResponse ≡ json.Unmarshal: the same value
// and an error in both or neither — the same error.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	var got, want QueryResponse
	gerr := DecodeQueryResponse(body, &got)
	werr := json.Unmarshal(body, &want)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("body %q: DecodeQueryResponse error %v, json.Unmarshal error %v", body, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\nDecodeQueryResponse %#v\njson.Unmarshal      %#v", body, got, want)
	}
}

func FuzzQueryResponseCodec(f *testing.F) {
	f.Add("demo|cert|proj(0, Orders)|4bf92f3577b34da6|oid|o1|o2|_1", uint8(1), uint64(0), 0.125, uint16(0))
	f.Add("s|sql|q|t|a|b|x|_2|y|_3|#|c|d|1|2", uint8(2), uint64(1<<15|1<<13|5<<1|1|7<<60), 12.5, uint16(3))
	f.Add("s\"|p\\|q\n\t<&>|caf\u00e9|\"q\"|back\\slash|line\nbreak|<&>|\u2028\u2029|\xff\xfe|\x01\x7f|\u00e9t\u00e9", uint8(1), uint64(3<<13|1<<15|0xffff<<16), 1e-7, uint16(5))
	f.Add("||||", uint8(0), uint64(0), 0.0, uint16(6))
	f.Add("a|b|c|d|x|y", uint8(3), uint64(2<<13), 1e21, uint16(4))
	f.Add("a|b|c|d|x|y|z", uint8(1), uint64(1<<13), -0.001, uint16(41))
	f.Add("a|b|c|d|x|_18446744073709551615", uint8(1), uint64(0), 123456.789, uint16(7))
	f.Add("a|b|c|d|x|y", uint8(1), uint64(1), 0.5, uint16(8+10*77))
	f.Add("a|b|c|d|x|y", uint8(1), uint64(1<<13), 0.5, uint16(9))
	f.Add("a|b|c|d|x|y", uint8(1), uint64(1<<13), 0.5, uint16(2))
	f.Fuzz(func(t *testing.T, text string, arity uint8, bits uint64, elapsed float64, mutation uint16) {
		if math.IsNaN(elapsed) || math.IsInf(elapsed, 0) {
			elapsed = 0 // the server only reports finite times; encoding/json refuses these
		}
		resp, labels, rels := fuzzResponse(text, arity, bits, elapsed)
		got := AppendQueryResponse(nil, resp, AppendResults(nil, labels, rels))
		resp.Results = referenceResults(labels, rels)
		if want := encodeJSON(t, resp); !bytes.Equal(got, want) {
			t.Fatalf("encoder output differs from encoding/json:\n got %q\nwant %q", got, want)
		}
		checkDecode(t, got)
		if !bytes.ContainsFunc(got, func(r rune) bool { return r == '\\' || r >= 0x80 }) {
			var out QueryResponse
			if !decodeFast(got, &out) {
				t.Fatalf("the fast path refused an escape-free encoder body %q", got)
			}
		}
		checkDecode(t, mutate(t, got, resp, mutation))
	})
}

// TestDecodeQueryResponseFallback pins the bodies the fast path hands to
// encoding/json, one per reason.
func TestDecodeQueryResponseFallback(t *testing.T) {
	fast := `{"session":"s","proc":"cert","query":"q","results":[{"name":"cert⊥","rows":[]}],"elapsed_ms":1}` + "\n"
	if !decodeFast([]byte(strings.Replace(fast, "⊥", "", 1)), new(QueryResponse)) {
		t.Fatal("fast path refused an ASCII body")
	}
	for _, body := range []string{
		fast, // non-ASCII
		`{"session":"s\u0041","proc":"","query":"","results":[],"elapsed_ms":0}`,
		`{"session":"s","proc":"","query":"","results":[],"elapsed_ms":0,"extra":1}`,
		`{"proc":"","session":"s","query":"","results":[],"elapsed_ms":0}`,
		`{"session": "s","proc":"","query":"","results":[],"elapsed_ms":0}`,
		`{"session":"s","proc":"","query":"","results":[{"name":"n","rows":null}],"elapsed_ms":0}`,
		`{"session":"s","proc":"","query":"","results":null,"elapsed_ms":0}`,
		`{"session":"s","proc":"","query":"","results":[],"elapsed_ms":01}`,
		`{"session":"s","proc":"","query":"","results":[],"elapsed_ms":0,"worlds":1e3}`,
		`{"session":"s","proc":"","query":"","results":[],"elapsed_ms":0} x`,
		`{"session":"s","proc":"","query":"","results":[],"elapsed_ms":0,"epoch":-1}`,
		`{"session":"s","proc":"","query":"","results":[],"elapsed_ms":0,"cached":1}`,
	} {
		if decodeFast([]byte(body), new(QueryResponse)) {
			t.Errorf("fast path accepted %s", body)
		}
		checkDecode(t, []byte(body))
	}
}
