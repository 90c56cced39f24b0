// Package tpch provides the synthetic workload substrate for the paper's
// cited experiments: the TPC-H evaluation of the Q⁺ rewriting in [37]
// (1–4 % overhead) and the precision/recall study of [27]. Real TPC-H data
// and a commercial RDBMS are not available here, so the package generates
// a deterministic, seeded database over a five-table TPC-H-like schema
// (region, nation, customer, orders, lineitem), injects marked nulls into
// non-key attributes at a configurable rate ("dirtying"), and defines
// eight benchmark queries covering the query shapes the experiments rely
// on: key/foreign-key joins, NOT-IN/difference patterns, disjunctive
// selections, unions and range predicates — all inside the Figure 2
// translation fragment.
package tpch

import (
	"fmt"
	"math/rand"

	"incdb/internal/algebra"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// Config controls the generator. All sizes are tuple counts.
type Config struct {
	Customers int
	// OrdersPerCustomer is the mean; a fraction of customers have none
	// (the NOT-IN queries need a non-empty answer).
	OrdersPerCustomer int
	// ItemsPerOrder is the mean; a fraction of orders have no items.
	ItemsPerOrder int
	Nations       int
	Regions       int
	Seed          int64
}

// TinyConfig is sized so that the exact certain-answer oracle stays
// feasible (the oracle enumerates |Const(D)|^|Null(D)| worlds).
func TinyConfig() Config {
	return Config{Customers: 4, OrdersPerCustomer: 1, ItemsPerOrder: 1, Nations: 2, Regions: 1, Seed: 11}
}

// SmallConfig is a small but non-trivial instance for functional tests.
func SmallConfig() Config {
	return Config{Customers: 12, OrdersPerCustomer: 2, ItemsPerOrder: 2, Nations: 4, Regions: 2, Seed: 1}
}

// BenchConfig is sized for timing runs.
func BenchConfig() Config {
	return Config{Customers: 300, OrdersPerCustomer: 3, ItemsPerOrder: 3, Nations: 10, Regions: 5, Seed: 7}
}

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
var statuses = []string{"F", "O", "P"}

// Generate builds a complete (null-free) database.
func Generate(cfg Config) *relation.Database {
	r := rand.New(rand.NewSource(cfg.Seed))
	db := relation.NewDatabase()

	region := relation.New("region", "r_regionkey", "r_name")
	for i := 0; i < cfg.Regions; i++ {
		region.Add(value.Consts(fmt.Sprintf("R%d", i), fmt.Sprintf("REGION_%d", i)))
	}
	db.Add(region)

	nation := relation.New("nation", "n_nationkey", "n_name", "n_regionkey")
	for i := 0; i < cfg.Nations; i++ {
		nation.Add(value.Consts(
			fmt.Sprintf("N%d", i),
			fmt.Sprintf("NATION_%d", i),
			fmt.Sprintf("R%d", r.Intn(max(cfg.Regions, 1))),
		))
	}
	db.Add(nation)

	customer := relation.New("customer",
		"c_custkey", "c_name", "c_nationkey", "c_acctbal", "c_mktsegment")
	for i := 0; i < cfg.Customers; i++ {
		customer.Add(value.Consts(
			fmt.Sprintf("C%d", i),
			fmt.Sprintf("Customer#%d", i),
			fmt.Sprintf("N%d", r.Intn(max(cfg.Nations, 1))),
			fmt.Sprintf("%d", r.Intn(10000)),
			segments[r.Intn(len(segments))],
		))
	}
	db.Add(customer)

	orders := relation.New("orders", "o_orderkey", "o_custkey", "o_totalprice", "o_orderstatus")
	lineitem := relation.New("lineitem", "l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice")
	okey := 0
	for i := 0; i < cfg.Customers; i++ {
		if r.Intn(5) == 0 {
			continue // customer without orders
		}
		n := 1 + r.Intn(max(2*cfg.OrdersPerCustomer-1, 1))
		for j := 0; j < n; j++ {
			ok := fmt.Sprintf("O%d", okey)
			okey++
			orders.Add(value.Consts(
				ok,
				fmt.Sprintf("C%d", i),
				fmt.Sprintf("%d", 100+r.Intn(99900)),
				statuses[r.Intn(len(statuses))],
			))
			if r.Intn(6) == 0 {
				continue // order without lineitems
			}
			items := 1 + r.Intn(max(2*cfg.ItemsPerOrder-1, 1))
			for l := 0; l < items; l++ {
				lineitem.Add(value.Consts(
					ok,
					fmt.Sprintf("%d", l+1),
					fmt.Sprintf("%d", 1+r.Intn(50)),
					fmt.Sprintf("%d", 10+r.Intn(9990)),
				))
			}
		}
	}
	db.Add(orders)
	db.Add(lineitem)
	return db
}

// nullableColumns lists the non-key attributes eligible for null injection,
// mirroring how incompleteness shows up in practice (keys stay intact).
var nullableColumns = map[string][]int{
	"nation":   {2},       // n_regionkey
	"customer": {2, 3, 4}, // c_nationkey, c_acctbal, c_mktsegment
	"orders":   {1, 2, 3}, // o_custkey, o_totalprice, o_orderstatus
	"lineitem": {2, 3},    // l_quantity, l_extendedprice
}

// Dirty replaces non-key attribute values with fresh marked nulls at the
// given rate. maxNulls caps the total injected nulls (0 = unlimited) so
// that exact oracles stay feasible on small instances. Deterministic for a
// fixed seed.
func Dirty(db *relation.Database, rate float64, maxNulls int, seed int64) *relation.Database {
	return DirtyColumns(db, nullableColumns, rate, maxNulls, seed)
}

// DirtyColumns is Dirty restricted to the given relation→columns map,
// useful for stressing exactly the attributes a query set is sensitive to.
// It may be applied repeatedly; fresh nulls never collide with existing
// ones anywhere in the source database.
func DirtyColumns(db *relation.Database, columns map[string][]int, rate float64, maxNulls int, seed int64) *relation.Database {
	r := rand.New(rand.NewSource(seed))
	// Allocate fresh null ids above everything in the source.
	next := uint64(1)
	for _, id := range db.NullIDs() {
		if id >= next {
			next = id + 1
		}
	}
	out := relation.NewDatabase()
	injected := 0
	for _, name := range db.Names() {
		src := db.Relation(name)
		dst := relation.New(src.Name(), src.Attrs()...)
		nullable := columns[name]
		src.Each(func(t value.Tuple, m int) {
			nt := t.Clone()
			for _, col := range nullable {
				if (maxNulls == 0 || injected < maxNulls) && r.Float64() < rate {
					nt[col] = value.Null(next)
					next++
					injected++
				}
			}
			dst.AddMult(nt, m)
		})
		out.Add(dst)
	}
	return out
}

// NamedQuery is a benchmark query with its description.
type NamedQuery struct {
	Name string
	Desc string
	Q    algebra.Expr
}

// Queries returns the eight benchmark queries. Column positions follow
// the schema order in Generate.
func Queries() []NamedQuery {
	customer := algebra.R("customer")
	orders := algebra.R("orders")
	lineitem := algebra.R("lineitem")
	nation := algebra.R("nation")

	c := value.Const
	return []NamedQuery{
		{
			Name: "Q1-customers-without-orders",
			Desc: "π_custkey(customer) − π_custkey(orders): the unpaid-orders pattern of Figure 1",
			Q: algebra.Minus(
				algebra.Proj(customer, 0),
				algebra.Proj(orders, 1),
			),
		},
		{
			Name: "Q2-orders-without-lineitems",
			Desc: "π_orderkey(orders) − π_orderkey(lineitem)",
			Q: algebra.Minus(
				algebra.Proj(orders, 0),
				algebra.Proj(lineitem, 0),
			),
		},
		{
			Name: "Q3-high-value-orders",
			Desc: "σ_{totalprice>50000}(orders), range predicate on a nullable column",
			Q:    algebra.Proj(algebra.Sel(orders, algebra.CGreaterC(2, c("50000"))), 0, 1),
		},
		{
			Name: "Q4-customer-order-join",
			Desc: "customers joined with their orders (key/foreign-key join)",
			Q: algebra.Proj(
				algebra.Join(customer, orders, algebra.CEq(0, 6)),
				0, 5,
			),
		},
		{
			Name: "Q5-disjunctive-selection",
			Desc: "σ_{status=F ∨ price<1000}(orders): the disjunction case where [37] saw optimizer trouble",
			Q: algebra.Proj(algebra.Sel(orders, algebra.COr(
				algebra.CEqC(3, c("F")),
				algebra.CLessC(2, c("1000")),
			)), 0),
		},
		{
			Name: "Q6-customers-without-big-orders",
			Desc: "π_custkey(customer) − π_custkey(σ_{price>80000}(orders))",
			Q: algebra.Minus(
				algebra.Proj(customer, 0),
				algebra.Proj(algebra.Sel(orders, algebra.CGreaterC(2, c("80000"))), 1),
			),
		},
		{
			Name: "Q7-segment-union",
			Desc: "automobile ∪ building customers",
			Q: algebra.Un(
				algebra.Proj(algebra.Sel(customer, algebra.CEqC(4, c("AUTOMOBILE"))), 0),
				algebra.Proj(algebra.Sel(customer, algebra.CEqC(4, c("BUILDING"))), 0),
			),
		},
		{
			Name: "Q8-nations-without-customers",
			Desc: "π_nationkey(nation) − π_nationkey(customer)",
			Q: algebra.Minus(
				algebra.Proj(nation, 0),
				algebra.Proj(customer, 2),
			),
		},
		{
			Name: "Q9-status-tautology",
			Desc: "σ_{status='F' ∨ status≠'F'}(orders): the introduction's third query — certain for every order, yet any tuple with a null status evades both SQL and Q⁺",
			Q: algebra.Proj(algebra.Sel(orders, algebra.COr(
				algebra.CEqC(3, c("F")),
				algebra.CNeqC(3, c("F")),
			)), 0),
		},
	}
}

// MultiJoinQueries returns the star- and chain-shaped multi-join queries:
// three to five relations with strongly skewed cardinalities (region ≪
// nation ≪ customer ≪ orders ≪ lineitem), written with the largest
// relation syntactically first — the adversarial order for a planner that
// joins left-deep as written, and the benchmark for cost-based join
// ordering. Column positions follow the schema order in Generate; the
// product layout of each query is noted inline.
func MultiJoinQueries() []NamedQuery {
	customer := algebra.R("customer")
	orders := algebra.R("orders")
	lineitem := algebra.R("lineitem")
	nation := algebra.R("nation")
	region := algebra.R("region")

	c := value.Const
	return []NamedQuery{
		{
			Name: "Q10-lineitem-order-customer-chain",
			Desc: "π_{c_name, l_extendedprice}(lineitem ⋈ orders ⋈ customer): three-way foreign-key chain, fact table first",
			// Layout: lineitem 0–3, orders 4–7, customer 8–12.
			Q: algebra.Proj(
				algebra.Sel(
					algebra.Times(algebra.Times(lineitem, orders), customer),
					algebra.CAnd(algebra.CEq(0, 4), algebra.CEq(5, 8))),
				9, 3),
		},
		{
			Name: "Q11-customer-geo-star",
			Desc: "π_{c_custkey, n_name}(σ_{r_name=REGION_0}(customer ⋈ nation ⋈ region)): selective dimension filter at the syntactic tail",
			// Layout: customer 0–4, nation 5–7, region 8–9.
			Q: algebra.Proj(
				algebra.Sel(
					algebra.Times(algebra.Times(customer, nation), region),
					algebra.CAnd(algebra.CEq(2, 5),
						algebra.CAnd(algebra.CEq(7, 8), algebra.CEqC(9, c("REGION_0"))))),
				0, 6),
		},
		{
			Name: "Q12-five-way-star",
			Desc: "π_{c_name, l_extendedprice}(σ_{o_orderstatus=F}(lineitem ⋈ orders ⋈ customer ⋈ nation ⋈ region)): the full five-table star",
			// Layout: lineitem 0–3, orders 4–7, customer 8–12, nation 13–15, region 16–17.
			Q: algebra.Proj(
				algebra.Sel(
					algebra.Times(algebra.Times(algebra.Times(algebra.Times(lineitem, orders), customer), nation), region),
					algebra.CAnd(algebra.CEq(0, 4),
						algebra.CAnd(algebra.CEq(5, 8),
							algebra.CAnd(algebra.CEq(10, 13),
								algebra.CAnd(algebra.CEq(15, 16), algebra.CEqC(7, c("F"))))))),
				9, 3),
		},
	}
}

// TotalTuples reports the database size (distinct tuples across relations).
func TotalTuples(db *relation.Database) int {
	total := 0
	for _, name := range db.Names() {
		total += db.Relation(name).Len()
	}
	return total
}
