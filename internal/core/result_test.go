package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"incdb/internal/algebra"
	"incdb/internal/api"
	"incdb/internal/certain"
	"incdb/internal/gen"
	"incdb/internal/plan"
	"incdb/internal/relation"
	"incdb/internal/tpch"
	"incdb/internal/value"
)

// planBacked lists the served rows whose answer is a prepared plan's (frozen,
// Δ) result rather than an oracle's or a c-table strategy's relation.
func planBacked() []*Proc {
	var ps []*Proc
	for i := range Procs {
		if p := &Procs[i]; p.Served && p.Plan != nil && p.oracle == nil {
			ps = append(ps, p)
		}
	}
	return ps
}

// materialized copies every result into a relation of its own.
func materialized(rs []plan.Result) []*relation.Relation {
	out := make([]*relation.Relation, len(rs))
	for i, r := range rs {
		out[i] = r.Relation()
	}
	return out
}

// checkServed runs p through cache — served bytes — and checks them against
// the bytes of the materialized results and of a one-shot evaluation, which
// has no frozen part at all. It reports whether p answered.
func checkServed(t *testing.T, what string, p *Proc, db *relation.Database, q algebra.Expr, bag bool, cache *plan.PrepCache) bool {
	t.Helper()
	rs, err := Run(p, db, q, bag, certain.Options{Prep: cache})
	if err != nil {
		return false
	}
	got := api.AppendResults(nil, p.Labels, rs)
	if want := api.AppendResults(nil, p.Labels, materialized(rs)); !bytes.Equal(got, want) {
		t.Fatalf("%s: %s bag=%t %s: served %s, materialized %s", what, p.Name, bag, q, got, want)
	}
	ref, err := Run(p, db, q, bag, certain.Options{})
	if err != nil {
		t.Fatalf("%s: %s bag=%t %s: one-shot: %v", what, p.Name, bag, q, err)
	}
	if want := api.AppendResults(nil, p.Labels, ref); !bytes.Equal(got, want) {
		t.Fatalf("%s: %s bag=%t %s: served %s, one-shot %s", what, p.Name, bag, q, got, want)
	}
	return true
}

// TestServedBytesMatchMaterialized: for every plan-backed row and both
// semantics, the bytes encoded from the frozen part merged with the sorted Δ
// equal those encoded from the materialized answer and from a one-shot
// evaluation — on the benchmark's TPC-H instance at 2 % nulls, cold and
// warm, and on generated instances whose cached entries are advanced by
// random appends, so that frozen parts grow and their sorted snapshots are
// rebuilt.
func TestServedBytesMatchMaterialized(t *testing.T) {
	t.Run("tpch", func(t *testing.T) {
		db := tpch.Dirty(tpch.Generate(tpch.BenchConfig()), 0.02, 0, 1)
		cache := plan.NewPrepCache(0)
		for i, nq := range append(tpch.Queries(), tpch.MultiJoinQueries()...) {
			for _, p := range planBacked() {
				// poss (Q?) is served on every query but Q10 and Q12, whose
				// cold and warm checks each ran past 40 s under set and bag
				// semantics; every other query took at most 0.07 s for
				// both passes (Q4: 0.06 s, the rest 0.01 s or less).
				if p.Name == "poss" && (i == 9 || i == 11) {
					continue
				}
				for _, bag := range []bool{false, true} {
					for _, pass := range []string{"cold", "warm"} {
						if !checkServed(t, nq.Name+" "+pass, p, db, nq.Q, bag, cache) {
							t.Fatalf("%s: %s refused", nq.Name, p.Name)
						}
					}
				}
			}
		}
	})
	t.Run("gen", func(t *testing.T) {
		r := rand.New(rand.NewSource(3607))
		cfg := gen.DefaultConfig()
		cfg.MaxTuples = 8
		qcfg := gen.DefaultQueryConfig()
		qcfg.InSubRate = 0.2
		answered, advances := 0, 0
		for trial := 0; trial < 120; trial++ {
			db := gen.DB(r, cfg)
			q := gen.Query(r, qcfg, 1+trial%2)
			cache := plan.NewPrepCache(0)
			for step := 0; step < 5; step++ {
				if step > 0 {
					appendRandomRows(r, db, cfg)
				}
				for _, p := range planBacked() {
					for _, bag := range []bool{false, true} {
						if checkServed(t, fmt.Sprintf("trial %d step %d", trial, step), p, db, q, bag, cache) {
							answered++
						}
					}
				}
			}
			advances += int(cache.Stats().Advances)
		}
		if answered == 0 || advances == 0 {
			t.Fatalf("%d answers, %d advances: want both", answered, advances)
		}
	})
}

// appendRandomRows appends one to three rows, some with nulls (old and new)
// and some repeating a stored tuple, to the generated schema's relations.
func appendRandomRows(r *rand.Rand, db *relation.Database, cfg gen.Config) {
	for n := 1 + r.Intn(3); n > 0; n-- {
		rel := db.Relation([]string{"R", "S", "T"}[r.Intn(3)])
		if ts := rel.Tuples(); len(ts) > 0 && r.Intn(4) == 0 {
			rel.AddMult(ts[r.Intn(len(ts))], 1)
			continue
		}
		row := make(value.Tuple, rel.Arity())
		for i := range row {
			if r.Float64() < 0.25 {
				row[i] = value.Null(uint64(1 + r.Intn(cfg.NullPool+1)))
			} else {
				row[i] = gen.ConstOf(r.Intn(cfg.ConstPool))
			}
		}
		rel.AddMult(row, 1+r.Intn(2))
	}
}

// TestSharedSortedSnapshot: readers encode the same cached entry at once,
// right after it was prepared or advanced, so they race on catching it up
// and on publishing its frozen part's lazily built sorted snapshot; appends
// land between rounds under the write lock, as a session's do. Every
// reader's bytes must equal a one-shot evaluation's. Run it under -race.
func TestSharedSortedSnapshot(t *testing.T) {
	db := relation.NewDatabase()
	r, s := relation.New("R", "a", "b"), relation.New("S", "b", "c")
	for i := 0; i < 60; i++ {
		r.Add(value.Consts(fmt.Sprintf("a%d", i%13), fmt.Sprintf("b%d", i%7)))
		s.Add(value.T(value.Const(fmt.Sprintf("b%d", i%5)), value.Const(fmt.Sprintf("c%d", i))))
	}
	r.Add(value.T(value.Const("a1"), db.FreshNull()))
	db.Add(r)
	db.Add(s)
	q := algebra.Proj(algebra.Join(algebra.R("R"), algebra.R("S"), algebra.CEq(1, 2)), 0, 3)
	cache := plan.NewPrepCache(0)
	var mu sync.RWMutex
	const rounds, readers = 12, 4
	for round := 0; round < rounds; round++ {
		if round > 0 {
			mu.Lock()
			r.Add(value.Consts(fmt.Sprintf("a%d", round), fmt.Sprintf("b%d", round%5)))
			if round%3 == 0 {
				r.Add(value.T(value.Const(fmt.Sprintf("a%d", round)), db.FreshNull()))
			}
			s.Add(value.Consts(fmt.Sprintf("b%d", round%5), fmt.Sprintf("z%d", round)))
			mu.Unlock()
		}
		for _, p := range planBacked() {
			for _, bag := range []bool{false, true} {
				ref, err := Run(p, db, q, bag, certain.Options{})
				if err != nil {
					t.Fatal(err)
				}
				want := api.AppendResults(nil, p.Labels, ref)
				start := make(chan struct{})
				var wg sync.WaitGroup
				for g := 0; g < readers; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						mu.RLock()
						defer mu.RUnlock()
						rs, err := Run(p, db, q, bag, certain.Options{Prep: cache})
						if err != nil {
							t.Error(err)
							return
						}
						if got := api.AppendResults(nil, p.Labels, rs); !bytes.Equal(got, want) {
							t.Errorf("round %d %s bag=%t: served %s, one-shot %s", round, p.Name, bag, got, want)
						}
					}()
				}
				close(start)
				wg.Wait()
			}
		}
	}
	if st := cache.Stats(); st.Advances == 0 {
		t.Errorf("no entry was advanced: %+v", st)
	}
}

// raceEnabled is set when the tests run under the race detector (race_test.go).
var raceEnabled bool

// TestServedEncodeAllocsFlat: serving a warmed prepared answer whose Δ is
// empty allocates the same at |Frozen| = 100 and 1 000 — the frozen part is
// neither copied nor re-sorted per request. The output buffer is reused, so
// its growth is not counted.
func TestServedEncodeAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	p := Lookup("sql")
	allocs := func(n int) float64 {
		db := relation.NewDatabase()
		r := relation.New("R", "a", "b")
		for i := 0; i < n; i++ {
			r.Add(value.Consts(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%10)))
		}
		db.Add(r)
		q := algebra.Proj(algebra.R("R"), 1, 0)
		opts := certain.Options{Prep: plan.NewPrepCache(0)}
		var buf []byte
		serve := func() {
			rs, err := Run(p, db, q, false, opts)
			if err != nil {
				t.Fatal(err)
			}
			buf = api.AppendResults(buf[:0], p.Labels, rs)
		}
		serve()
		if !bytes.Contains(buf, []byte(fmt.Sprintf(`["b9","a%d"]`, n-1))) {
			t.Fatalf("|R| = %d: unexpected answer %.80s…", n, buf)
		}
		return testing.AllocsPerRun(50, serve)
	}
	small, large := allocs(100), allocs(1000)
	t.Logf("allocations per served request: %.0f at |Frozen| = 100, %.0f at 1000", small, large)
	if large > small {
		t.Errorf("allocations grow with the frozen part: %.0f at |Frozen| = 100, %.0f at 1000", small, large)
	}
}

// TestCTableRefusesHugeProducts: on the benchmark's TPC-H instance Q10 and
// Q12 each build a lineitem × orders product of 1 830 × 743 c-rows, past the
// c-table bound, so ctable-aware refuses them with an error within seconds
// instead of exhausting memory; Q4's 300 × 743 product is still answered.
func TestCTableRefusesHugeProducts(t *testing.T) {
	db := tpch.Dirty(tpch.Generate(tpch.BenchConfig()), 0.02, 0, 1)
	aware := Lookup("ctable-aware")
	byName := map[string]algebra.Expr{}
	for _, nq := range append(tpch.Queries(), tpch.MultiJoinQueries()...) {
		byName[nq.Name[:strings.IndexByte(nq.Name, '-')]] = nq.Q
	}
	for _, name := range []string{"Q10", "Q12"} {
		start := time.Now()
		if _, err := Run(aware, db, byName[name], false, certain.Options{}); err == nil || !strings.Contains(err.Error(), "1830 × 743") {
			t.Errorf("%s: ctable-aware err %v, want the 1830 × 743 product refused", name, err)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("%s: refusal took %v", name, d)
		}
	}
	if _, err := Run(aware, db, byName["Q4"], false, certain.Options{}); err != nil {
		t.Errorf("Q4: %v", err)
	}
}
