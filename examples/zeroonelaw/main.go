// The probabilistic view of Section 4.3: answers returned by naive
// evaluation are almost certainly true (µ = 1), the rest almost certainly
// false (µ = 0) — and integrity constraints turn µ into arbitrary
// rationals.
package main

import (
	"fmt"

	"incdb"
	"incdb/internal/constraint"
)

func main() {
	// R = {1}, S = {⊥}: is 1 ∈ R − S?
	db := incdb.NewDatabase()
	r := incdb.NewRelation("R", "a")
	r.Add(incdb.Consts("1"))
	db.Add(r)
	s := incdb.NewRelation("S", "a")
	s.Add(incdb.T(db.FreshNull()))
	db.Add(s)
	q := incdb.Minus(incdb.R("R"), incdb.R("S"))
	target := incdb.Consts("1")

	fmt.Println("R = {1}, S = {⊥}, Q = R − S, ā = (1)")
	fmt.Println("k     µk(Q,D,ā)")
	for _, k := range []int{2, 4, 8, 16, 32, 64} {
		muk, err := incdb.MuK(db, q, nil, target, k, incdb.CertainOptions{})
		if err != nil {
			panic(err)
		}
		f, _ := muk.Float64()
		fmt.Printf("%-5d %.4f\n", k, f)
	}
	mu, _ := incdb.Mu(db, q, nil, target, incdb.CertainOptions{})
	fmt.Printf("limit %s — almost certainly true (Theorem 4.10)\n\n", mu.RatString())

	// Under the constraint S ⊆ T with T = {1,2}, the probability becomes
	// exactly 1/2 (Theorem 4.11).
	db2 := incdb.NewDatabase()
	tt := incdb.NewRelation("T", "a")
	tt.Add(incdb.Consts("1"))
	tt.Add(incdb.Consts("2"))
	db2.Add(tt)
	s2 := incdb.NewRelation("S", "a")
	s2.Add(incdb.T(db2.FreshNull()))
	db2.Add(s2)
	sigma := incdb.Constraints{constraint.IND{R1: "S", Cols1: []int{0}, R2: "T", Cols2: []int{0}}}
	q2 := incdb.Minus(incdb.R("T"), incdb.R("S"))
	muCond, err := incdb.Mu(db2, q2, sigma, incdb.Consts("1"), incdb.CertainOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("T = {1,2}, S = {⊥}, Σ: S ⊆ T, Q = T − S, ā = (1)")
	fmt.Printf("µ(Q|Σ, D, ā) = %s — the constraint pins ⊥ to {1,2}\n", muCond.RatString())
}
