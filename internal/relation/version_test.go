package relation

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"incdb/internal/value"
)

// TestVersionBumpsOnEveryMutationPath pins the contract long-lived caches
// rely on: every mutating call moves the version, even when it is a no-op.
func TestVersionBumpsOnEveryMutationPath(t *testing.T) {
	r := New("R", "a", "b")
	if r.Version() != 0 {
		t.Fatalf("fresh relation version = %d, want 0", r.Version())
	}
	last := r.Version()
	step := func(name string, f func()) {
		f()
		if r.Version() <= last {
			t.Fatalf("%s did not bump the version (still %d)", name, r.Version())
		}
		last = r.Version()
	}
	step("Add", func() { r.Add(value.Consts("x", "y")) })
	step("AddMult", func() { r.AddMult(value.Consts("x", "y"), 2) })
	step("AddMult negative", func() { r.AddMult(value.Consts("x", "y"), -1) })
	step("AddMult no-op (absent, m<=0)", func() { r.AddMult(value.Consts("q", "q"), -1) })
	step("SetMult", func() { r.SetMult(value.Consts("x", "y"), 5) })
	step("SetMult remove", func() { r.SetMult(value.Consts("x", "y"), 0) })
	step("Normalize", func() { r.Normalize() })
}

// TestVersionStableAcrossReads checks that read-only accessors — including
// the ones that build lazy derived state — never move the version.
func TestVersionStableAcrossReads(t *testing.T) {
	r := New("R", "a")
	r.Add(value.T(value.Null(1)))
	r.Add(value.Consts("c"))
	v := r.Version()
	_ = r.HasNulls()
	_ = r.Tuples()
	_ = r.String()
	r.Each(func(value.Tuple, int) {})
	_ = r.Contains(value.Consts("c"))
	_ = r.Size()
	if r.Version() != v {
		t.Fatalf("read-only accessors moved the version: %d -> %d", v, r.Version())
	}
}

// TestVersionCloneAndApply: Clone preserves the version (the copy holds the
// same contents, so cached state keyed on (pointer, version) pairs stays
// distinguishable yet comparable); Apply builds fresh relations at zero.
func TestVersionCloneAndApply(t *testing.T) {
	r := New("R", "a")
	r.Add(value.T(value.Null(1)))
	r.Add(value.Consts("c"))
	want := r.Version()
	c := r.Clone()
	if c.Version() != want {
		t.Fatalf("Clone version = %d, want %d", c.Version(), want)
	}
	val := value.NewValuation()
	val.Set(1, value.Const("z"))
	if got := r.Apply(val).Version(); got != 0 {
		t.Fatalf("Apply result version = %d, want 0 (fresh relation)", got)
	}
	if r.Version() != want {
		t.Fatalf("Apply moved the source version: %d -> %d", want, r.Version())
	}
}

// TestVersionStableUnderApply: building worlds from a base database must
// not perturb the base's version vector, also from concurrent readers.
func TestVersionStableUnderApply(t *testing.T) {
	db := NewDatabase()
	withNulls := New("N", "a")
	withNulls.Add(value.T(value.Null(1)))
	complete := New("C", "a")
	complete.Add(value.Consts("c"))
	complete.Add(value.Consts("d"))
	db.Add(withNulls).Add(complete)

	before := db.Versions()
	val := value.NewValuation()
	val.Set(1, value.Const("c"))

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if world := db.Apply(val); !world.IsComplete() {
					t.Error("world still has nulls")
					return
				}
			}
		}()
	}
	wg.Wait()
	after := db.Versions()
	for name, v := range before {
		if after[name] != v {
			t.Fatalf("Apply moved version of %s: %d -> %d", name, v, after[name])
		}
	}
}

// TestConstsCachedUntilMutation: Consts() is served from its cache while no
// relation has mutated and the catalogue is unchanged, is recomputed after
// either — after mixed inserts it is sorted and equal to a cold walk of a
// clone — and can be appended to without corrupting the cached copy.
func TestConstsCachedUntilMutation(t *testing.T) {
	db := NewDatabase()
	r := New("R", "a")
	r.Add(value.Consts("b"))
	r.Add(value.T(value.Null(1)))
	db.Add(r)

	first := db.Consts()
	if len(first) != 1 || first[0] != value.Const("b") {
		t.Fatalf("Consts = %v", first)
	}
	if again := db.Consts(); &again[0] != &first[0] {
		t.Fatal("unchanged database recomputed Consts")
	}
	_ = append(first, value.Const("zz"))
	if got := db.ActiveDomain(); len(got) != 2 || got[1] != value.Null(1) {
		t.Fatalf("ActiveDomain = %v", got)
	}

	r.Add(value.Consts("a"))
	if got := db.Consts(); len(got) != 2 || got[0] != value.Const("a") {
		t.Fatalf("Consts after Add = %v", got)
	}
	s := New("S", "x")
	s.Add(value.Consts("c"))
	db.Add(s)
	if got := db.Consts(); len(got) != 3 {
		t.Fatalf("Consts after a new relation = %v", got)
	}
	db.Add(New("S", "x"))
	if got := db.Consts(); len(got) != 2 {
		t.Fatalf("Consts after replacing a relation = %v", got)
	}
	// Inserts of new and known constants, a null row and a repeat of a
	// stored row.
	r.Add(value.T(value.Null(2)))
	r.Add(value.Consts("10"))
	r.Add(value.Consts("2")) // sorts before 10
	r.AddMult(value.Consts("b"), 3)
	got := db.Consts()
	cold := db.Clone().Consts()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return value.OrderLess(got[i], got[j]) }) || fmt.Sprint(got) != fmt.Sprint(cold) {
		t.Fatalf("Consts after inserts = %v, cold walk %v", got, cold)
	}
}

// TestPinsHold: pins hold exactly while every pinned relation is the same
// object at the same version; an absent name stays pinned as absent, and
// whole-catalogue pins also break on a new relation.
func TestPinsHold(t *testing.T) {
	db := NewDatabase()
	r := New("R", "a")
	r.Add(value.Consts("b"))
	db.Add(r)
	db.Add(New("S", "x"))

	some, all := db.Pin([]string{"R", "Missing"}), db.PinAll()
	if !db.Holds(some) || !db.Holds(all) {
		t.Fatal("fresh pins must hold")
	}
	db.MustRelation("S").Add(value.Consts("c"))
	if !db.Holds(some) || db.Holds(all) {
		t.Fatal("a mutation of S breaks the catalogue pins only")
	}
	all = db.PinAll()
	db.Add(New("Missing", "x"))
	if db.Holds(some) || db.Holds(all) {
		t.Fatal("a relation appearing under a pinned-absent name, or in a pinned catalogue, breaks the pins")
	}
	some = db.Pin([]string{"R"})
	r.Add(value.Consts("d"))
	if db.Holds(some) {
		t.Fatal("a mutation of a pinned relation breaks the pins")
	}
	some = db.Pin([]string{"R"})
	db.Add(r.Clone())
	if db.Holds(some) {
		t.Fatal("replacing a pinned relation breaks the pins")
	}
}
