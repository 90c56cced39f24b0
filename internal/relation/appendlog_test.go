package relation

import (
	"fmt"
	"testing"

	"incdb/internal/value"
)

// appendedKeys renders an AppendedSince answer for comparison.
func appendedKeys(rows []Appended) string {
	var out []string
	for _, a := range rows {
		out = append(out, fmt.Sprintf("%s×%d fresh=%t", a.T, a.M, a.Fresh))
	}
	return fmt.Sprint(out)
}

// TestAppendedSince: a pinned relation answers "what was inserted since
// version v" for every version the pin or a later insert saw, with new rows
// told apart from multiplicity increases; every mutation that is not an
// insert ends the log, and nothing is known about versions nobody pinned.
func TestAppendedSince(t *testing.T) {
	db := NewDatabase()
	r := New("R", "a")
	db.Add(r)
	r.Add(value.Consts("before"))
	if _, ok := r.AppendedSince(0); ok {
		t.Fatal("an unpinned relation kept a log")
	}

	v0 := r.Version()
	db.Pin([]string{"R"})
	if rows, ok := r.AppendedSince(v0); !ok || len(rows) != 0 {
		t.Fatalf("right after the pin: %v, %t", rows, ok)
	}
	r.Add(value.Consts("x"))
	v1 := r.Version()
	r.AddMult(value.Consts("x"), 2)
	r.AddMult(value.T(value.Null(1)), 1)
	r.AddMult(value.Consts("absent"), 0) // moves the version, inserts nothing
	if rows, ok := r.AppendedSince(v0); !ok || appendedKeys(rows) != "[(x)×1 fresh=true (x)×2 fresh=false (⊥1)×1 fresh=true]" {
		t.Fatalf("since the pin: %s, %t", appendedKeys(rows), ok)
	}
	if rows, ok := r.AppendedSince(v1); !ok || len(rows) != 2 {
		t.Fatalf("since the first insert: %s, %t", appendedKeys(rows), ok)
	}
	if rows, ok := r.AppendedSince(r.Version()); !ok || len(rows) != 0 {
		t.Fatalf("since now: %s, %t", appendedKeys(rows), ok)
	}
	if _, ok := r.AppendedSince(v0 - 1); ok {
		t.Fatal("the log reaches back before the pin")
	}
	if _, ok := r.AppendedSince(r.Version() + 1); ok {
		t.Fatal("the log knows the future")
	}

	for name, mutate := range map[string]func(){
		"SetMult":          func() { r.SetMult(value.Consts("x"), 1) },
		"negative AddMult": func() { r.AddMult(value.Consts("x"), -1) },
		"Normalize":        func() { r.Normalize() },
		"RestoreVersion":   func() { r.RestoreVersion(r.Version() + 10) },
	} {
		before := r.Version()
		r.Add(value.Consts("y-" + name))
		mutate()
		if _, ok := r.AppendedSince(before); ok {
			t.Errorf("%s did not end the log", name)
		}
		after := r.Version()
		r.Add(value.Consts("z-" + name))
		if rows, ok := r.AppendedSince(after); !ok || len(rows) != 1 {
			t.Errorf("%s: the log did not restart: %s, %t", name, appendedKeys(rows), ok)
		}
	}

	// Replacing the relation object is not a set of inserts either.
	pins := db.Pin([]string{"R"})
	db.Add(r.Clone())
	if _, ok := db.AppendedSince(pins); ok {
		t.Error("a replaced relation reported appended rows")
	}
}

// TestAppendLogBounded: the log forgets its older half when full, so a
// holder that far behind is told to re-derive while a recent one is served.
func TestAppendLogBounded(t *testing.T) {
	db := NewDatabase()
	r := New("R", "a")
	db.Add(r)
	db.Pin([]string{"R"})
	var versions []uint64
	for i := 0; i < 3*maxAppendLog; i++ {
		versions = append(versions, r.Version())
		r.Add(value.Consts(fmt.Sprint(i)))
		if len(r.log) > maxAppendLog {
			t.Fatalf("log grew to %d entries", len(r.log))
		}
	}
	if _, ok := r.AppendedSince(versions[0]); ok {
		t.Error("the bounded log still reaches back to the first of 3× its capacity")
	}
	recent := versions[len(versions)-maxAppendLog/2]
	if rows, ok := r.AppendedSince(recent); !ok || len(rows) != maxAppendLog/2 {
		t.Errorf("a holder %d inserts behind got %d rows, %t", maxAppendLog/2, len(rows), ok)
	}
}

// TestHasNullsSurvivesInserts: the cached answer is kept across inserts —
// flipped by a row with a null, reset only by a removal.
func TestHasNullsSurvivesInserts(t *testing.T) {
	r := New("R", "a")
	r.Add(value.Consts("x"))
	if r.HasNulls() || r.nullState.Load() != 1 {
		t.Fatal("null-free relation not cached as such")
	}
	r.Add(value.Consts("y"))
	if r.nullState.Load() != 1 {
		t.Error("a null-free insert dropped the cached answer")
	}
	r.Add(value.T(value.Null(7)))
	if r.nullState.Load() != 2 || !r.HasNulls() {
		t.Error("inserting a null row did not flip the cached answer")
	}
	r.Add(value.Consts("z"))
	r.AddMult(value.T(value.Null(7)), 2)
	if r.nullState.Load() != 2 {
		t.Error("an insert dropped the cached 'has nulls'")
	}
	r.SetMult(value.T(value.Null(7)), 0)
	if r.nullState.Load() != 0 || r.HasNulls() {
		t.Error("removing the only null row must reset the cache and answer null-free")
	}
	r.Add(value.T(value.Null(8)))
	r.AddMult(value.T(value.Null(8)), -1)
	if r.HasNulls() {
		t.Error("a subtracting AddMult that removes the null row left 'has nulls' cached")
	}
}

// TestPinAllStartsNoLog: whole-catalogue pins (Consts, a plan that reads
// Dom) never catch up, so they leave a relation's inserts unlogged; Pin
// starts the log.
func TestPinAllStartsNoLog(t *testing.T) {
	db := NewDatabase()
	r := New("R", "a")
	db.Add(r)
	all := db.PinAll()
	db.Consts()
	r.Add(value.Consts("x"))
	if _, ok := r.AppendedSince(all.versions[0]); ok || len(r.log) != 0 {
		t.Fatalf("%d inserts logged under whole-catalogue pins", len(r.log))
	}
	some := db.Pin([]string{"R"})
	r.Add(value.Consts("y"))
	if rows, ok := db.AppendedSince(some); !ok || len(rows["R"]) != 1 {
		t.Fatalf("after Pin: AppendedSince = %v, %v", rows, ok)
	}
}
