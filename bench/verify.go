package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"incdb/internal/algebra"
	"incdb/internal/raparse"
	"incdb/internal/relation"
	"incdb/internal/server"
	"incdb/internal/value"
)

// checker collects the failures found after the window; each is one failed
// operation in the run's error count.
type checker struct {
	failed   int
	failures []string
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// wireRows renders a relation the way the server's responses do: constants
// verbatim, the null with identifier k as _k.
func wireRows(r *relation.Relation) [][]string {
	rows := make([][]string, 0, r.Len())
	r.Each(func(t value.Tuple, _ int) {
		row := make([]string, len(t))
		for i, v := range t {
			if v.IsNull() {
				row[i] = "_" + strconv.FormatUint(v.NullID(), 10)
			} else {
				row[i] = v.ConstVal()
			}
		}
		rows = append(rows, row)
	})
	return rows
}

func rowSet(rows [][]string) map[string]bool {
	set := make(map[string]bool, len(rows))
	for _, row := range rows {
		set[strings.Join(row, "\x00")] = true
	}
	return set
}

func subset(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func sameSet(a, b map[string]bool) bool { return len(a) == len(b) && subset(a, b) }

// interp evaluates q on db with the tree-walking interpreter, the repo's
// ground truth, and returns the answer as a set of wire rows.
func interp(db *relation.Database, q algebra.Expr, mode algebra.Mode) map[string]bool {
	return rowSet(wireRows(algebra.EvalInterp(db, q, mode)))
}

// checkReadOnly verifies the answers of a workload without writes. Every
// reply was already compared with the first reply to the same (query, proc)
// as it arrived; here the first replies are checked themselves:
//
//   - sql and naive answers equal the interpreter's on the benchmark's own
//     copy of the database;
//   - the paper's containments hold between the answers served for one
//     query, Q+ ⊆ cert⊥ ⊆ Q? and cert∩ ⊆ cert⊥, and Q+, cert∩ and cert⊥ are
//     inside the interpreter's naive answer.
func (c *checker) checkReadOnly(in *inputs, logs []*clientLog) {
	served := map[comboKey]map[string]bool{}
	for _, l := range logs {
		for key, a := range l.first {
			set := rowSet(a.rows)
			if prev, ok := served[key]; ok && !sameSet(prev, set) {
				c.fail("query %d under %s: two clients got different answers", key.qid, key.proc)
			}
			served[key] = set
		}
	}
	for qid, q := range in.queries {
		got := func(proc string) map[string]bool { return served[comboKey{qid, proc}] }
		naive := interp(in.db, q.ref, algebra.ModeNaive)
		if a := got("sql"); a != nil && !sameSet(a, interp(in.db, q.ref, algebra.ModeSQL)) {
			c.fail("query %d %q: sql answer differs from the interpreter's", qid, q.text)
		}
		if a := got("naive"); a != nil && !sameSet(a, naive) {
			c.fail("query %d %q: naive answer differs from the interpreter's", qid, q.text)
		}
		for _, pair := range [][2]string{{"plus", "cert"}, {"cert", "poss"}, {"inter", "cert"}, {"plus", "poss"}} {
			if lo, hi := got(pair[0]), got(pair[1]); lo != nil && hi != nil && !subset(lo, hi) {
				c.fail("query %d %q: %s answer is not contained in the %s answer", qid, q.text, pair[0], pair[1])
			}
		}
		for _, proc := range []string{"plus", "cert", "inter"} {
			if a := got(proc); a != nil && !subset(a, naive) {
				c.fail("query %d %q: %s answer is not contained in the naive answer", qid, q.text, proc)
			}
		}
	}
}

// checkMutable verifies a workload with writes. Each append is a single new
// row, so it moves its relation's version by exactly one: the versions the
// appends were acknowledged with order them, and the version vector a read
// was answered with names the exact prefix of appends it saw. The reads are
// replayed in that order against the benchmark's copy of the database,
// which is grown row by row to each read's state, and every answer must
// equal the interpreter's there (the cert reads bind no null, so their
// answer is the naive one). Leaves in.db holding every acknowledged append.
func (c *checker) checkMutable(in *inputs, base map[string]uint64, allOps []op, logs []*clientLog) {
	type applied struct {
		version uint64
		text    string
	}
	byRel := map[string][]applied{}
	var reads []*answer
	for _, l := range logs {
		for _, a := range l.acks {
			o := allOps[a.op]
			byRel[o.rel] = append(byRel[o.rel], applied{a.version, o.text})
		}
		reads = append(reads, l.reads...)
	}
	for rel, as := range byRel {
		sort.Slice(as, func(i, j int) bool { return as[i].version < as[j].version })
		for i, a := range as {
			if a.version != base[rel]+uint64(i)+1 {
				c.fail("%s: append acknowledged at version %d, expected %d (appends lost or reordered)", rel, a.version, base[rel]+uint64(i)+1)
				return
			}
		}
	}
	total := func(a *answer) (n uint64) {
		for rel := range byRel {
			n += a.versions[rel]
		}
		return n
	}
	sort.SliceStable(reads, func(i, j int) bool { return total(reads[i]) < total(reads[j]) })
	at := map[string]int{}
	growTo := func(versions map[string]uint64) bool {
		for rel, as := range byRel {
			want := int(versions[rel] - base[rel])
			if want < at[rel] || want > len(as) {
				return false
			}
			for ; at[rel] < want; at[rel]++ {
				if err := raparse.ParseDatabaseInto(strings.NewReader(as[at[rel]].text), in.db); err != nil {
					return false
				}
			}
		}
		return true
	}
	for _, a := range reads {
		o := allOps[a.op]
		if !growTo(a.versions) {
			c.fail("op %d: answered from version vector %v, which no prefix of the acknowledged appends produces", a.op, a.versions)
			continue
		}
		mode := algebra.ModeNaive
		if o.proc == "sql" {
			mode = algebra.ModeSQL
		}
		if !sameSet(rowSet(a.rows), interp(in.db, in.queries[o.qid].ref, mode)) {
			c.fail("op %d %s %q: answer differs from the interpreter's at version vector %v", a.op, o.proc, o.text, a.versions)
		}
	}
	final := map[string]uint64{}
	for rel, as := range byRel {
		final[rel] = base[rel] + uint64(len(as))
	}
	growTo(final)
}

// checkRecovered verifies a server restarted on the data directory of a
// killed one: every relation holds exactly the rows the benchmark's copy
// holds (the initial load plus every acknowledged append), and on a
// workload with writes every acknowledged key is there by name.
func (c *checker) checkRecovered(in *inputs, base string, allOps []op, logs []*clientLog) {
	cl := server.NewClient(base, sessionName)
	st, err := cl.SessionStatus()
	if err != nil {
		c.fail("after restart: %v", err)
		return
	}
	for _, r := range st.Relations {
		want := 0
		if rel := in.db.Relation(r.Name); rel != nil {
			want = rel.Len()
		}
		if want != r.Rows {
			c.fail("after restart: relation %s has %d rows, the acknowledged state has %d", r.Name, r.Rows, want)
		}
	}
	acked := map[string][]string{}
	for _, l := range logs {
		for _, a := range l.acks {
			o := allOps[a.op]
			acked[o.rel] = append(acked[o.rel], o.key)
		}
	}
	for rel, keys := range acked {
		resp, err := cl.Query("proj(0, "+rel+")", "sql", false, 0)
		if err != nil {
			c.fail("after restart: %v", err)
			continue
		}
		have := rowSet(resultRows(resp.Results))
		for _, k := range keys {
			if !have[k] {
				c.fail("after restart: acknowledged append %s %s is lost", rel, k)
			}
		}
	}
}
