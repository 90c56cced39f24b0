package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"incdb/internal/algebra"
	"incdb/internal/raparse"
	"incdb/internal/relation"
	"incdb/internal/tpch"
	"incdb/internal/translate"
	"incdb/internal/value"
)

// workloadNames are the benchmark's workloads, in report order.
var workloadNames = []string{"hot_small", "tpch_join", "null_worlds", "write_mix"}

// op is one request of a workload's operation stream: a query (text under
// proc, an instance of queries[qid]) or a single-row append into rel.
type op struct {
	write bool
	qid   int
	proc  string
	text  string // query text as sent, or the appended "row ..." line
	rel   string
	key   string // first column of the appended row
}

type query struct {
	text string // canonical spelling
	expr algebra.Expr
	// ref is what the checker's interpreter evaluates: expr, or an
	// equivalent the interpreter can evaluate in reasonable time.
	ref algebra.Expr
}

// inputs is everything a run sends to the server, a pure function of
// (workload, seed, op counts). dbText is what the server is loaded with; db
// is the benchmark's own parse of the same text, against which answers are
// checked (parsing the same text allocates the same null identifiers).
type inputs struct {
	workload string
	dbText   string
	db       *relation.Database
	queries  []query
	warmup   []op
	ops      []op
	// traced is the operation sample the traced rungs replay, drawn after
	// ops from the same stream (fresh append keys, same mix).
	traced []op
}

// generate builds the inputs of one workload. nWarm, nOps and nTraced are
// the lengths of the warm-up prefix, the timed sequence and the traced
// sample.
func generate(workload string, seed int64, nWarm, nOps, nTraced int) (*inputs, error) {
	h := fnv.New64a()
	h.Write([]byte(workload))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	in := &inputs{workload: workload}
	n := nWarm + nOps + nTraced

	var texts []string
	var refs map[int]string
	var all []op
	switch workload {
	case "hot_small":
		in.dbText = ordersData
		texts = hotSmallQueries
		all = readOps(rng, texts, hotSmallMix, false, n)
	case "tpch_join":
		db := tpch.Dirty(tpch.Generate(tpch.BenchConfig()), 0.02, 0, rng.Int63())
		text, err := raparse.RenderDatabase(db)
		if err != nil {
			return nil, err
		}
		in.dbText = text
		texts, refs = tpchQueries, tpchReference
		all = readOps(rng, texts, tpchMix(), true, n)
	case "null_worlds":
		text, err := nullWorldsDatabase(rng)
		if err != nil {
			return nil, err
		}
		in.dbText = text
		texts = nullWorldsQueries
		all = readOps(rng, texts, nullWorldsMix(), true, n)
	case "write_mix":
		in.dbText, texts = writeMixDatabase(rng)
		all = writeMixOps(rng, seed, texts, n)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}

	db, err := raparse.ParseDatabase(strings.NewReader(in.dbText))
	if err != nil {
		return nil, fmt.Errorf("%s: generated database does not parse: %w", workload, err)
	}
	in.db = db
	parse := func(text string) (algebra.Expr, error) {
		e, err := raparse.ParseQuery(text)
		if err == nil {
			err = algebra.Validate(e, db)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: query %q: %w", workload, text, err)
		}
		return e, nil
	}
	for qid, text := range texts {
		q := query{text: text}
		if q.expr, err = parse(text); err != nil {
			return nil, err
		}
		q.ref = q.expr
		if ref, ok := refs[qid]; ok {
			if q.ref, err = parse(ref); err != nil {
				return nil, err
			}
		}
		in.queries = append(in.queries, q)
	}
	in.warmup, in.ops, in.traced = all[:nWarm], all[nWarm:nWarm+nOps], all[nWarm+nOps:]
	return in, nil
}

// readOps returns n read-only operations: shuffled cycles of the mix, so
// every window of one cycle holds each combo exactly weight times and the
// latency quantiles do not depend on sampling luck. With respelled set, the
// i-th operation's text is a spelling no other operation within a
// result-cache lifetime shares.
func readOps(rng *rand.Rand, texts []string, mix []combo, respelled bool, n int) []op {
	var cycle []combo
	for _, c := range mix {
		for i := 0; i < c.weight; i++ {
			cycle = append(cycle, c)
		}
	}
	offset := rng.Intn(1 << 16)
	ops := make([]op, 0, n+len(cycle))
	for len(ops) < n {
		for _, j := range rng.Perm(len(cycle)) {
			c := cycle[j]
			text := texts[c.qid]
			if respelled {
				text = respell(text, offset+len(ops))
			}
			ops = append(ops, op{qid: c.qid, proc: c.proc, text: text})
		}
	}
	return ops[:n]
}

// nullWorldsConfig is the null_worlds instance: 24 tuples, 61 constants, so
// two relevant nulls span (61+3)^2 = 4096 worlds (plus one per query
// constant outside the database) - the low end of the issue's 2-20 k
// target, which is what fits a thousand oracle calls into a ten-second
// window on two cores.
var nullWorldsConfig = tpch.Config{Customers: 7, OrdersPerCustomer: 1, ItemsPerOrder: 1, Nations: 3, Regions: 2, Seed: 5}

// nullWorldsDatabase dirties the instance with two nulls in each of
// nullWorldsColumns, at seeded rows, redrawing until the set of constants is
// unchanged and every query keeps a non-empty Q+ (hence, as Q+ is contained
// in the certain answer, a non-empty certain answer).
func nullWorldsDatabase(rng *rand.Rand) (string, error) {
	base := tpch.Generate(nullWorldsConfig)
	nConsts := len(base.Consts())
	var plus []algebra.Expr
	for _, text := range nullWorldsQueries {
		q, err := raparse.ParseQuery(text)
		if err != nil {
			return "", err
		}
		p, _, err := translate.Fig2b(q)
		if err != nil {
			return "", err
		}
		plus = append(plus, p)
	}
	for attempt := 0; attempt < 1000; attempt++ {
		db := base
		for _, c := range nullWorldsColumns {
			db = dirtyRows(db, c.rel, c.col, rng.Perm(base.Relation(c.rel).Len())[:2])
		}
		if len(db.Consts()) != nConsts {
			continue
		}
		ok := true
		for _, p := range plus {
			if algebra.EvalInterp(db, p, algebra.ModeNaive).Len() == 0 {
				ok = false
				break
			}
		}
		if ok {
			return raparse.RenderDatabase(db)
		}
	}
	return "", fmt.Errorf("null_worlds: no dirtying keeps every query's certain answer non-empty")
}

// dirtyRows replaces column col of the rows at the given positions (in the
// relation's deterministic tuple order) of relation rel with fresh nulls.
func dirtyRows(db *relation.Database, rel string, col int, rows []int) *relation.Database {
	next := uint64(1)
	for _, id := range db.NullIDs() {
		if id >= next {
			next = id + 1
		}
	}
	pick := map[int]bool{}
	for _, r := range rows {
		pick[r] = true
	}
	out := relation.NewDatabase()
	for _, name := range db.Names() {
		src := db.Relation(name)
		if name != rel {
			out.Add(src)
			continue
		}
		dst := relation.New(src.Name(), src.Attrs()...)
		for i, t := range src.Tuples() {
			if pick[i] {
				t = t.Clone()
				t[col] = value.Null(next)
				next++
			}
			dst.Add(t)
		}
		out.Add(dst)
	}
	return out
}

// write_mix sizes: the orders schema grown to about 2 k rows.
const (
	writeMixCustomers = 200
	writeMixOrders    = 1200
	writeMixPaid      = 800
)

// writeMixDatabase renders the pre-grown orders schema and picks the read
// queries' constants. One customer name in fifty is a null: the reads never
// touch that column, so the certainty oracle prunes those nulls and every
// cert read is a single world.
func writeMixDatabase(rng *rand.Rand) (dbText string, reads []string) {
	var b strings.Builder
	b.WriteString("rel Customers cid name\nrel Orders oid cid\nrel Payments oid\n")
	for i := 0; i < writeMixCustomers; i++ {
		if rng.Intn(50) == 0 {
			fmt.Fprintf(&b, "row Customers c%d _%d\n", i, i+1)
		} else {
			fmt.Fprintf(&b, "row Customers c%d 'Name %d'\n", i, i)
		}
	}
	for i := 0; i < writeMixOrders; i++ {
		fmt.Fprintf(&b, "row Orders o%d c%d\n", i, rng.Intn(writeMixCustomers))
	}
	for i := 0; i < writeMixPaid; i++ {
		fmt.Fprintf(&b, "row Payments o%d\n", i)
	}
	// Eight short reads over the relations the appends grow: a fixed set, so
	// the prepared-plan cache holds them all and every append invalidates
	// them.
	for i := 0; i < 2; i++ {
		c, o := rng.Intn(writeMixCustomers), rng.Intn(writeMixOrders)
		reads = append(reads,
			fmt.Sprintf("proj(0, sel(eqc(1, 'c%d'), Orders))", c),
			fmt.Sprintf("sel(eqc(0, 'o%d'), Payments)", o),
			fmt.Sprintf("proj(0, sel(not(in(0, Payments)), sel(eqc(1, 'c%d'), Orders)))", c),
			fmt.Sprintf("minus(proj(0, sel(eqc(0, 'c%d'), Customers)), proj(1, Orders))", c),
		)
	}
	return b.String(), reads
}

// writeMixMix gives each read above its procedure and weight: the two
// lookups run under sql, the two difference shapes under cert, three lookups
// to one difference. A cert read costs three times a lookup; at 3:1 the
// median read sits in the middle of the lookups and the 90th percentile in
// the middle of the cert reads, where at 1:1 the median sat on the edge
// between the two and jumped from seed to seed.
func writeMixMix(reads []string) []combo {
	var mix []combo
	for qid := range reads {
		if qid%4 < 2 {
			mix = append(mix, combo{qid, "sql", 3})
		} else {
			mix = append(mix, combo{qid, "cert", 1})
		}
	}
	return mix
}

// writeMixOps returns n operations in shuffled blocks of four appends and
// four reads. Appends alternate between a new order (for a seeded customer)
// and a payment for the oldest unpaid order; keys carry the seed so two
// seeds never append the same row.
func writeMixOps(rng *rand.Rand, seed int64, reads []string, n int) []op {
	readOps := readOps(rng, reads, writeMixMix(reads), false, n)
	ops := make([]op, 0, n+8)
	appends := 0
	for len(ops) < n {
		for _, j := range rng.Perm(8) {
			if j >= 4 {
				ops = append(ops, readOps[len(ops)-appends])
				continue
			}
			k := appends / 2
			if appends%2 == 0 {
				key := fmt.Sprintf("a%d_%d", seed, k)
				ops = append(ops, op{write: true, rel: "Orders", key: key,
					text: fmt.Sprintf("row Orders %s c%d\n", key, rng.Intn(writeMixCustomers))})
			} else {
				// Unpaid orders, oldest first: the pre-grown tail, then the
				// appended ones.
				key := fmt.Sprintf("o%d", writeMixPaid+k)
				if k >= writeMixOrders-writeMixPaid {
					key = fmt.Sprintf("a%d_%d", seed, k-(writeMixOrders-writeMixPaid))
				}
				ops = append(ops, op{write: true, rel: "Payments", key: key,
					text: fmt.Sprintf("row Payments %s\n", key)})
			}
			appends++
		}
	}
	return ops[:n]
}
