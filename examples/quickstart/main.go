// Quickstart: build a small incomplete database, run one query under every
// evaluation procedure, and see how they differ.
package main

import (
	"fmt"

	"incdb"
)

func main() {
	// An inventory with two known items and one whose warehouse is
	// unknown (a marked null).
	db := incdb.NewDatabase()
	items := incdb.NewRelation("Items", "sku", "warehouse")
	items.Add(incdb.Consts("tv", "berlin"))
	items.Add(incdb.Consts("radio", "paris"))
	items.Add(incdb.T(incdb.Const("laptop"), db.FreshNull()))
	db.Add(items)
	berlin := incdb.NewRelation("BerlinSKUs", "sku")
	berlin.Add(incdb.Consts("tv"))
	db.Add(berlin)

	// Which items are NOT stored in berlin?
	// π_sku(σ_{warehouse≠'berlin'}(Items))
	q := incdb.Proj(incdb.Sel(incdb.R("Items"),
		incdb.CNeqC(1, incdb.Const("berlin"))), 0)

	fmt.Println("Query: items not stored in berlin")
	fmt.Println("SQL evaluation:   ", incdb.SQL(db, q))
	fmt.Println("Naive evaluation: ", incdb.Naive(db, q))

	cert, err := incdb.CertainWithNulls(db, q, incdb.CertainOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("Certain answers:  ", cert)

	plus, _ := incdb.ApproxPlus(db, q)
	poss, _ := incdb.ApproxPossible(db, q)
	fmt.Println("Q+ (certain ⊆):   ", plus)
	fmt.Println("Q? (possible ⊇):  ", poss)

	// The laptop's membership is a matter of probability: the unknown
	// warehouse is almost certainly not berlin.
	mu, err := incdb.Mu(db, q, nil, incdb.Consts("laptop"), incdb.CertainOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("µ(laptop ∈ Q):    ", mu.RatString(), "(almost certainly true)")

	// One-call comparison with SQL-error classification.
	rep := incdb.Analyze(db, q, incdb.CertainOptions{})
	fmt.Println("SQL false negatives:", rep.FalseNegatives)
}
