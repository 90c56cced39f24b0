package api

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"incdb/internal/value"
)

// QueryResponse is the one wire type whose size grows with the data, so it
// has a hand-written codec: the server renders an answer straight into JSON
// bytes once (and its result cache keeps those bytes), and the client
// decodes the bytes without reflection. Both ends produce and accept exactly
// what encoding/json does; every other type uses it directly.
//
// The server renders from plan.Result, a plan-backed answer in (frozen, Δ)
// form: the frozen part's sorted order is built once per prepared plan and
// Δ is merged into it, so a request neither copies nor re-sorts the answer.
// Anything with a relation's Attrs and Each encodes the same way, so a
// materialized relation and the Result it came from give identical bytes.

// Rows is what a resultset is rendered from: attribute names, and every
// distinct tuple with its multiplicity in deterministic order.
// *relation.Relation and plan.Result both have it.
type Rows interface {
	Attrs() []string
	Each(f func(t value.Tuple, mult int))
}

// AppendResults appends the JSON "results" array of a query response: one
// resultset per answer, named by the matching label, in the database text
// format — rows in the answer's deterministic order, constants verbatim,
// the null ⊥k as "_k", "mults" only when some multiplicity differs from one.
// The bytes are what encoding/json writes for the equivalent []Resultset.
func AppendResults[R Rows](b []byte, labels []string, rels []R) []byte {
	b = append(b, '[')
	for i, r := range rels {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendResultset(b, labels[i], r)
	}
	return append(b, ']')
}

func appendResultset[R Rows](b []byte, name string, r R) []byte {
	b = appendString(append(b, `{"name":`...), name)
	if cols := r.Attrs(); len(cols) > 0 {
		b = append(b, `,"columns":[`...)
		for i, c := range cols {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, c)
		}
		b = append(b, ']')
	}
	b = append(b, `,"rows":[`...)
	first, bag := true, false
	r.Each(func(t value.Tuple, m int) {
		if !first {
			b = append(b, ',')
		}
		first, bag = false, bag || m != 1
		b = append(b, '[')
		for i, v := range t {
			if i > 0 {
				b = append(b, ',')
			}
			if v.IsNull() {
				b = append(strconv.AppendUint(append(b, `"_`...), v.NullID(), 10), '"')
			} else {
				b = appendString(b, v.ConstVal())
			}
		}
		b = append(b, ']')
	})
	b = append(b, ']')
	if bag {
		// A second walk is cheaper than collecting every multiplicity of a
		// set answer only to discover that all of them are one.
		b = append(b, `,"mults":[`...)
		first = true
		r.Each(func(_ value.Tuple, m int) {
			if !first {
				b = append(b, ',')
			}
			first = false
			b = strconv.AppendInt(b, int64(m), 10)
		})
		b = append(b, ']')
	}
	return append(b, '}')
}

// AppendQueryResponse appends resp as a json.Encoder with HTML escaping off
// writes it, trailing newline included, except that the "results" value is
// results verbatim (an AppendResults array, possibly kept by a result cache)
// and resp.Results is ignored. resp.ElapsedMs must be finite.
func AppendQueryResponse(b []byte, resp *QueryResponse, results []byte) []byte {
	b = appendString(append(b, `{"session":`...), resp.Session)
	b = appendString(append(b, `,"proc":`...), resp.Proc)
	b = appendString(append(b, `,"query":`...), resp.Query)
	b = append(append(b, `,"results":`...), results...)
	b = appendFloat(append(b, `,"elapsed_ms":`...), resp.ElapsedMs)
	if resp.Cached {
		b = append(b, `,"cached":true`...)
	}
	if resp.Worlds != 0 {
		b = strconv.AppendInt(append(b, `,"worlds":`...), resp.Worlds, 10)
	}
	if resp.FrozenReuse != 0 {
		b = strconv.AppendInt(append(b, `,"frozen_reuse":`...), resp.FrozenReuse, 10)
	}
	if len(resp.Versions) > 0 {
		names := make([]string, 0, len(resp.Versions))
		for name := range resp.Versions {
			names = append(names, name)
		}
		sort.Strings(names)
		b = append(b, `,"versions":{`...)
		for i, name := range names {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(append(appendString(b, name), ':'), resp.Versions[name], 10)
		}
		b = append(b, '}')
	}
	if resp.Epoch != 0 {
		b = strconv.AppendUint(append(b, `,"epoch":`...), resp.Epoch, 10)
	}
	if resp.TraceID != "" {
		b = appendString(append(b, `,"trace_id":`...), resp.TraceID)
	}
	return append(b, "}\n"...)
}

// plain holds the bytes a JSON string carries verbatim: printable ASCII
// except the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// appendString appends s as a JSON string: printable ASCII verbatim, and a
// string holding a quote, a backslash, a control byte or a non-ASCII byte
// through encoding/json's own escaping.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			_ = enc.Encode(s) // a string always encodes
			return append(b, bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendFloat formats f the way encoding/json does (ES6 number to string).
func appendFloat(b []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		// clean up e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

// DecodeQueryResponse decodes a query response body into into, which it
// overwrites. A body of exactly the shape AppendQueryResponse writes is
// parsed without reflection: every string is a substring of one copy of the
// body, and the rows of the whole response are windows onto one []string.
// Any other body — an escape, a non-ASCII byte, an unknown, missing or
// reordered key, whitespace, malformed input — goes whole to json.Unmarshal,
// so the value and the error are always encoding/json's.
func DecodeQueryResponse(body []byte, into *QueryResponse) error {
	if decodeFast(body, into) {
		return nil
	}
	*into = QueryResponse{}
	return json.Unmarshal(body, into)
}

// decodeFast is DecodeQueryResponse's reflection-free path; false means the
// body is not in the encoder's shape and into holds nothing of use.
func decodeFast(body []byte, into *QueryResponse) bool {
	*into = QueryResponse{}
	s := string(body)
	d := decoder{
		s:     s,
		cells: make([]string, 0, strings.Count(s, `"`)/2+1),
		rows:  make([][]string, 0, strings.Count(s, "[")+1),
	}
	return d.response(into)
}

// decoder is a cursor over a body in AppendQueryResponse's shape. A mismatch
// sets bad, after which every step is a no-op and the caller falls back.
type decoder struct {
	s     string
	i     int
	bad   bool
	cells []string   // every string array element, in body order
	rows  [][]string // every row, in body order
}

func (d *decoder) response(r *QueryResponse) bool {
	r.Session = d.lit(`{"session":`).str()
	r.Proc = d.lit(`,"proc":`).str()
	r.Query = d.lit(`,"query":`).str()
	r.Results = []Resultset{}
	d.lit(`,"results":`).list('[', ']', func() { r.Results = append(r.Results, d.resultset()) })
	r.ElapsedMs = d.lit(`,"elapsed_ms":`).float()
	r.Cached = d.opt(`,"cached":true`)
	if d.opt(`,"worlds":`) {
		r.Worlds = d.int(64)
	}
	if d.opt(`,"frozen_reuse":`) {
		r.FrozenReuse = d.int(64)
	}
	if d.opt(`,"versions":`) {
		r.Versions = map[string]uint64{}
		d.list('{', '}', func() {
			name := d.str()
			r.Versions[name] = d.lit(":").uint()
		})
	}
	if d.opt(`,"epoch":`) {
		r.Epoch = d.uint()
	}
	if d.opt(`,"trace_id":`) {
		r.TraceID = d.str()
	}
	d.lit("}").opt("\n")
	return !d.bad && d.i == len(d.s)
}

func (d *decoder) resultset() (rs Resultset) {
	rs.Name = d.lit(`{"name":`).str()
	if d.opt(`,"columns":`) {
		rs.Columns = d.strs()
	}
	start := len(d.rows)
	d.lit(`,"rows":`).list('[', ']', func() { d.rows = append(d.rows, d.strs()) })
	rs.Rows = d.rows[start:len(d.rows):len(d.rows)]
	if d.opt(`,"mults":`) {
		rs.Mults = []int{}
		d.list('[', ']', func() { rs.Mults = append(rs.Mults, int(d.int(strconv.IntSize))) })
	}
	d.lit("}")
	return rs
}

// strs reads an array of strings onto the cell slab and returns its window.
func (d *decoder) strs() []string {
	start := len(d.cells)
	d.list('[', ']', func() { d.cells = append(d.cells, d.str()) })
	return d.cells[start:len(d.cells):len(d.cells)]
}

// list reads open, then elements separated by commas, then close, calling
// elem to read each element.
func (d *decoder) list(open, close byte, elem func()) {
	if !d.next(open) {
		d.bad = true
	} else if !d.next(close) {
		for more := true; more && !d.bad; more = d.next(',') {
			elem()
		}
		d.bad = d.bad || !d.next(close)
	}
}

// next consumes the byte c if it comes next.
func (d *decoder) next(c byte) bool {
	if d.bad || d.i == len(d.s) || d.s[d.i] != c {
		return false
	}
	d.i++
	return true
}

// opt consumes x if it comes next.
func (d *decoder) opt(x string) bool {
	if d.bad || !strings.HasPrefix(d.s[d.i:], x) {
		return false
	}
	d.i += len(x)
	return true
}

// lit consumes x, which must come next.
func (d *decoder) lit(x string) *decoder {
	d.bad = d.bad || !d.opt(x)
	return d
}

// str reads a string that needs no unescaping: printable ASCII only.
func (d *decoder) str() string {
	if d.next('"') {
		for i := d.i; i < len(d.s); i++ {
			if c := d.s[i]; !plain[c] {
				if c != '"' {
					break
				}
				s := d.s[d.i:i]
				d.i = i + 1
				return s
			}
		}
	}
	d.bad = true
	return ""
}

func (d *decoder) int(bits int) int64 {
	n, err := strconv.ParseInt(d.number(), 10, bits)
	d.bad = d.bad || err != nil
	return n
}

func (d *decoder) uint() uint64 {
	n, err := strconv.ParseUint(d.number(), 10, 64)
	d.bad = d.bad || err != nil
	return n
}

func (d *decoder) float() float64 {
	f, err := strconv.ParseFloat(d.number(), 64)
	d.bad = d.bad || err != nil
	return f
}

// number reads a JSON number token. The callers convert it as encoding/json
// does for their field's type, so a token it would refuse for that type (a
// fraction for an integer, out of range) is a mismatch too.
func (d *decoder) number() string {
	start := d.i
	for d.i < len(d.s) && strings.IndexByte("+-.0123456789Ee", d.s[d.i]) >= 0 {
		d.i++
	}
	if tok := d.s[start:d.i]; !d.bad && json.Valid([]byte(tok)) {
		return tok
	}
	d.bad = true
	return ""
}
