package main

import (
	"strings"
)

// ordersData is the 5-row orders schema cmd/incdbload has driven since PR 10
// (LoadRows is kept, empty, so the database text is the same one).
const ordersData = `rel Customers cid name
rel Orders oid cid
rel Payments oid
rel LoadRows k v
row Customers c1 'Ann'
row Customers c2 'Bob'
row Orders o1 c1
row Orders o2 _1
row Payments o1
`

// combo is one (query, procedure) pair of a workload's read mix; weight is
// how many times it occurs per shuffled cycle of the mix.
type combo struct {
	qid    int
	proc   string
	weight int
}

// hotSmallQueries and hotSmallMix are cmd/incdbload's five requests.
var hotSmallQueries = []string{
	"proj(0, sel(not(in(0, Payments)), Orders))",
	"minus(proj(0, Customers), proj(1, Orders))",
	"proj(0, Orders)",
	"times(Orders, Payments)",
}

var hotSmallMix = []combo{
	{0, "cert", 1}, {0, "sql", 1}, {1, "cert", 1}, {2, "sql", 1}, {3, "sql", 1},
}

// tpchQueries are tpch.Queries() and tpch.MultiJoinQueries() (Q1-Q12) in
// raparse syntax, in that order; TestTPCHQueryTexts pins them to the
// algebra values the package builds.
var tpchQueries = []string{
	"minus(proj(0, customer), proj(1, orders))",
	"minus(proj(0, orders), proj(0, lineitem))",
	"proj(0 1, sel(gtc(2, '50000'), orders))",
	"proj(0 5, sel(eq(0, 6), times(customer, orders)))",
	"proj(0, sel(or(eqc(3, 'F'), ltc(2, '1000')), orders))",
	"minus(proj(0, customer), proj(1, sel(gtc(2, '80000'), orders)))",
	"union(proj(0, sel(eqc(4, 'AUTOMOBILE'), customer)), proj(0, sel(eqc(4, 'BUILDING'), customer)))",
	"minus(proj(0, nation), proj(2, customer))",
	"proj(0, sel(or(eqc(3, 'F'), neqc(3, 'F')), orders))",
	"proj(9 3, sel(and(eq(0, 4), eq(5, 8)), times(times(lineitem, orders), customer)))",
	"proj(0 6, sel(and(eq(2, 5), and(eq(7, 8), eqc(9, 'REGION_0'))), times(times(customer, nation), region)))",
	"proj(9 3, sel(and(eq(0, 4), and(eq(5, 8), and(eq(10, 13), and(eq(15, 16), eqc(7, 'F'))))), times(times(times(times(lineitem, orders), customer), nation), region)))",
}

// tpchReference respells the multi-join queries as nested two-way joins, the
// shape the tree-walking interpreter hash-joins: on the selection over a
// three- to five-way product it materialises the product (3.7 s for Q10 on
// the benchmark instance, out of memory for Q12), so the checker evaluates
// these instead. TestTPCHQueryTexts pins each to its query on an instance
// small enough to evaluate both.
var tpchReference = map[int]string{
	9:  "proj(9 3, sel(eq(5, 8), times(sel(eq(0, 4), times(lineitem, orders)), customer)))",
	10: "proj(0 6, sel(and(eq(7, 8), eqc(9, 'REGION_0')), times(sel(eq(2, 5), times(customer, nation)), region)))",
	11: "proj(9 3, sel(eq(15, 16), times(sel(eq(10, 13), times(sel(and(eq(5, 8), eqc(7, 'F')), times(sel(eq(0, 4), times(lineitem, orders)), customer)), nation)), region)))",
}

// tpchMix is every query under sql, naive and plus, and poss on the shapes
// without a join (Q1, Q5, Q8) only: Q? over the three-way Q10 did not finish
// in 90 s when the workload was sized, so it is left out, not timed out.
func tpchMix() []combo {
	var mix []combo
	for qid := range tpchQueries {
		for _, proc := range []string{"sql", "naive", "plus"} {
			mix = append(mix, combo{qid, proc, 1})
		}
	}
	for _, qid := range []int{0, 4, 7} {
		mix = append(mix, combo{qid, "poss", 1})
	}
	return mix
}

// nullWorldsColumns are the columns null_worlds dirties, two nulls each.
// They are categorical: the constant a null replaces still occurs in another
// row, so Const(D) - and with it the size of every valuation space - is the
// same for every seed.
var nullWorldsColumns = []struct {
	rel string
	col int
}{
	{"customer", 2}, // c_nationkey
	{"customer", 4}, // c_mktsegment
	{"orders", 3},   // o_orderstatus
}

// nullWorldsQueries each read exactly one of the dirtied columns, so every
// oracle call binds two nulls. Each keeps a non-empty certain answer: an
// oracle whose candidates all die stops early at a point that depends on how
// the shards interleave, and its world count would not repeat.
var nullWorldsQueries = []string{
	"union(proj(0, sel(eqc(4, 'BUILDING'), customer)), proj(0, sel(eqc(4, 'MACHINERY'), customer)))",
	"proj(0, sel(or(eqc(3, 'O'), ltc(2, '30000')), orders))",
	"proj(0, sel(or(eqc(3, 'F'), neqc(3, 'F')), orders))",
	"proj(0 5, sel(and(eq(0, 6), neqc(2, 'N0')), times(customer, orders)))",
	"minus(proj(0, customer), proj(1, sel(eqc(3, 'O'), orders)))",
	"proj(0 6, sel(and(eq(2, 5), eq(7, 8)), times(times(customer, nation), region)))",
}

// nullWorldsMix is 60 % cert, 20 % inter, 10 % plus, 10 % poss per query.
func nullWorldsMix() []combo {
	var mix []combo
	for qid := range nullWorldsQueries {
		mix = append(mix, combo{qid, "cert", 6}, combo{qid, "inter", 2}, combo{qid, "plus", 1}, combo{qid, "poss", 1})
	}
	return mix
}

// respell returns text with up to two extra blanks after each comma and
// opening parenthesis, chosen by the base-3 digits of n: byte-distinct for
// distinct n below 3^gaps, and the same token sequence, so the server's
// result cache (keyed by the text) misses while its prepared-plan cache
// (keyed by the parsed query) hits.
func respell(text string, n int) string {
	var b strings.Builder
	quoted := false
	for i := 0; i < len(text); i++ {
		c := text[i]
		b.WriteByte(c)
		if c == '\'' {
			quoted = !quoted
		}
		if !quoted && (c == ',' || c == '(') {
			b.WriteString("  "[:n%3])
			n /= 3
		}
	}
	return b.String()
}
