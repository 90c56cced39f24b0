package prob

import (
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/constraint"
	"incdb/internal/relation"
	"incdb/internal/value"
)

func probDB(nulls int) *relation.Database {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	r.Add(value.Consts("1"))
	r.Add(value.Consts("2"))
	db.Add(r)
	s := relation.New("S", "a")
	for i := 0; i < nulls; i++ {
		s.Add(value.T(db.FreshNull()))
	}
	db.Add(s)
	return db
}

// TestMuKParallelMatchesSerial shards the kⁿ counter and checks the rational is
// bit-identical to the serial count, with and without constraints.
func TestMuKParallelMatchesSerial(t *testing.T) {
	db := probDB(3)
	q := algebra.Minus(algebra.R("R"), algebra.R("S"))
	sigma := constraint.Set{constraint.IND{R1: "S", Cols1: []int{0}, R2: "R", Cols2: []int{0}}}
	tuple := value.Consts("1")
	for _, k := range []int{4, 9} {
		for _, sg := range []constraint.Set{nil, sigma} {
			serial, err := MuK(db, q, sg, tuple, k, certain.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := MuK(db, q, sg, tuple, k, certain.Options{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if serial.Cmp(parallel) != 0 {
				t.Errorf("k=%d sigma=%v: serial %s vs parallel %s", k, sg != nil, serial, parallel)
			}
		}
	}
}
