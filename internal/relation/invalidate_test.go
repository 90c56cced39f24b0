package relation

import (
	"testing"

	"incdb/internal/value"
)

// Mutating a relation from inside an Each iteration must invalidate the
// sorted row snapshot, so that the next deterministic iteration sees the new
// row. (The in-flight iteration itself walks the snapshot it captured; only
// subsequent calls observe the mutation.)
func TestMutationDuringEachInvalidatesSnapshot(t *testing.T) {
	r := New("R", "a", "b")
	r.Add(value.Consts("x", "1"))
	r.Add(value.Consts("x", "2"))
	r.Add(value.Consts("y", "3"))

	// Force the lazy snapshot into existence.
	_ = r.Tuples()
	if r.sorted.Load() == nil {
		t.Fatalf("sorted snapshot not built")
	}

	added := false
	r.Each(func(tu value.Tuple, _ int) {
		if !added {
			added = true
			r.Add(value.Consts("x", "0"))
		}
	})
	if !added {
		t.Fatalf("Each visited nothing")
	}
	if r.sorted.Load() != nil {
		t.Fatalf("mutation during Each left the sorted snapshot alive")
	}

	// The rebuilt snapshot sees the new row, in sorted position.
	ts := r.Tuples()
	if len(ts) != 4 || !ts[0].Equal(value.Consts("x", "0")) {
		t.Fatalf("rebuilt snapshot wrong: %v", ts)
	}
}

// A mutation that only touches multiplicities through Normalize keeps the
// snapshot (its row pointers make the update visible through it), while
// any Add/AddMult/SetMult — including no-op ones — conservatively drops it.
func TestInvalidationGranularity(t *testing.T) {
	r := New("R", "a")
	r.AddMult(value.Consts("p"), 3)
	r.AddMult(value.Consts("q"), 1)
	_ = r.Tuples()

	r.Normalize()
	if r.sorted.Load() == nil {
		t.Fatalf("Normalize must not drop the sorted snapshot")
	}
	if got := r.Mult(value.Consts("p")); got != 1 {
		t.Fatalf("Normalize: mult = %d", got)
	}

	r.SetMult(value.Consts("p"), 5)
	if r.sorted.Load() != nil {
		t.Fatalf("SetMult must invalidate the sorted snapshot")
	}
}
