// The four conditional-table strategies of Greco et al. [36] on the
// paper's tautology query: eager, semi-eager and lazy miss the certain
// answer hidden behind the disjunction; aware's condition minimization
// finds it.
package main

import (
	"fmt"

	"incdb"
)

func main() {
	db := incdb.NewDatabase()
	p := incdb.NewRelation("Payments", "cid", "oid")
	p.Add(incdb.Consts("c1", "o1"))
	p.Add(incdb.T(incdb.Const("c2"), db.FreshNull()))
	db.Add(p)

	// SELECT cid FROM Payments WHERE oid = 'o2' OR oid <> 'o2'
	q := incdb.Proj(incdb.Sel(incdb.R("Payments"), incdb.COr(
		incdb.CEqC(1, incdb.Const("o2")),
		incdb.CNeqC(1, incdb.Const("o2")))), 0)

	cert, err := incdb.CertainWithNulls(db, q, incdb.CertainOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("cert⊥ =", cert.Tuples(), "(every cid is certain: the condition is a tautology)")
	fmt.Println()

	for _, s := range []incdb.Strategy{incdb.Eager, incdb.SemiEager, incdb.Lazy, incdb.Aware} {
		certain, possible, err := incdb.CTableAnswers(db, q, s)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-11s certain=%v possible=%v\n", s, certain.Tuples(), possible.Tuples())
	}

	fmt.Println("\nTheorem 4.9: all four under-approximate cert⊥; eager equals the")
	fmt.Println("Figure 2(b) scheme, aware additionally recognizes the tautology.")
}
