package certain_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/constraint"
	"incdb/internal/plan"
	"incdb/internal/prob"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// oracle is one procedure that quantifies over valuations, rendered as a
// string so that every result type compares alike.
type oracle struct {
	name string
	run  func(opts certain.Options) (string, error)
}

// oraclesOver lists the enumerating procedures named (all of them when none
// is) on query q and tuple t: Bool runs on the projection of q to zero
// columns, µ and µᵏ under sigma, µᵏ at k.
func oraclesOver(db *relation.Database, q algebra.Expr, sigma constraint.Set, t value.Tuple, k int, names ...string) []oracle {
	str := func(v any, err error) (string, error) { return fmt.Sprint(v), err }
	rel := func(r *relation.Relation, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return r.String(), nil
	}
	all := []oracle{
		{"WithNulls", func(o certain.Options) (string, error) { return rel(certain.WithNulls(db, q, o)) }},
		{"Intersection", func(o certain.Options) (string, error) { return rel(certain.Intersection(db, q, o)) }},
		{"Bool", func(o certain.Options) (string, error) { return str(certain.Bool(db, algebra.Proj(q), o)) }},
		{"CertainTuple", func(o certain.Options) (string, error) { return str(certain.CertainTuple(db, q, t, o)) }},
		{"PossibleTuple", func(o certain.Options) (string, error) { return str(certain.PossibleTuple(db, q, t, o)) }},
		{"BoxMult", func(o certain.Options) (string, error) { return str(certain.BoxMult(db, q, t, o)) }},
		{"DiamondMult", func(o certain.Options) (string, error) { return str(certain.DiamondMult(db, q, t, o)) }},
		{"MuK", func(o certain.Options) (string, error) { return str(prob.MuK(db, q, sigma, t, k, o)) }},
		{"Mu", func(o certain.Options) (string, error) { return str(prob.Mu(db, q, sigma, t, o)) }},
	}
	if len(names) == 0 {
		return all
	}
	var out []oracle
	for _, o := range all {
		if slices.Contains(names, o.name) {
			out = append(out, o)
		}
	}
	return out
}

// diffDB is R = {c0..c3}, S = {⊥1, ⊥2, ⊥3}: R − S is a barrier, so no
// oracle settles (c0) without enumerating, and every space is large enough
// to shard (512 worlds for the oracles, 5³ for µ⁵, 7³ patterns bound µ).
func diffDB() (*relation.Database, algebra.Expr) {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	for i := 0; i < 4; i++ {
		r.Add(value.Consts(fmt.Sprintf("c%d", i)))
	}
	db.Add(r)
	s := relation.New("S", "a")
	for i := 1; i <= 3; i++ {
		s.Add(value.T(value.Null(uint64(i))))
	}
	db.Add(s)
	return db, algebra.Minus(algebra.R("R"), algebra.R("S"))
}

// TestWorldCountRepeats: the number of worlds an oracle evaluates
// (Trace.Execs, what the server reports as "worlds") is a function of the
// database, the query and Workers. Every early exit is taken either before
// sharding or by a shard from its own range, so twenty repeats at Workers 2
// must report one number — with and without a prepared-plan cache — and one
// answer. µᵏ and µ take no early exit at all: they count every world (µᵏ
// skipping the evaluation of those failing Σ) and every pattern, so their
// answer and world count must also be one across Workers 1, 2 and 8.
func TestWorldCountRepeats(t *testing.T) {
	check := func(t *testing.T, o oracle, workers []int, reps int) (worlds int64) {
		var answer string
		first := true
		for _, w := range workers {
			for _, cache := range []*plan.PrepCache{nil, plan.NewPrepCache(0)} {
				for rep := 0; rep < reps; rep++ {
					tr := plan.NewTrace(false)
					got, err := o.run(certain.Options{Workers: w, Prep: cache, Trace: tr})
					if err != nil {
						t.Fatal(err)
					}
					if first {
						worlds, answer, first = tr.Execs.Load(), got, false
					} else if tr.Execs.Load() != worlds || got != answer {
						t.Fatalf("%s workers=%d (cache %t) repeat %d: %d worlds, first run %d; answer %s, first run %s",
							o.name, w, cache != nil, rep, tr.Execs.Load(), worlds, got, answer)
					}
				}
			}
		}
		return worlds
	}
	db, queries := certain.NullWorldsCorpus(t)
	for i, q := range queries {
		for _, o := range oraclesOver(db, q, nil, nil, 0, "WithNulls", "Intersection") {
			t.Run(fmt.Sprintf("query-%d/%s", i, o.name), func(t *testing.T) { check(t, o, []int{2}, 20) })
		}
	}
	ddb, q := diffDB()
	sigma := constraint.Set{constraint.IND{R1: "S", Cols1: []int{0}, R2: "R", Cols2: []int{0}}}
	for _, sg := range []constraint.Set{nil, sigma} {
		for _, o := range oraclesOver(ddb, q, sg, value.Consts("c0"), 5, "MuK", "Mu") {
			t.Run(fmt.Sprintf("sigma=%t/%s", sg != nil, o.name), func(t *testing.T) {
				worlds := check(t, o, []int{1, 2, 8}, 3)
				// µᵏ evaluates exactly the worlds satisfying Σ, |Suppᵏ(Σ)|.
				if _, den, err := prob.SuppCount(ddb, q, sg, value.Consts("c0"), 5); o.name == "MuK" && (err != nil || worlds != int64(den)) {
					t.Fatalf("µ⁵ evaluated %d worlds, |Supp⁵(Σ)| = %d (%v)", worlds, den, err)
				}
			})
		}
	}
}

// TestCancelledOraclesStop is the cancellation contract of the one world
// loop: under a cancelled Ctx every enumerating procedure returns the
// context's error, having evaluated at most PollInterval worlds per shard
// (plus WithNulls' candidate-producing base run).
func TestCancelledOraclesStop(t *testing.T) {
	db, q := diffDB()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, o := range oraclesOver(db, q, nil, value.Consts("c0"), 5) {
		for _, workers := range []int{1, 4} {
			tr := plan.NewTrace(false)
			got, err := o.run(certain.Options{Workers: workers, Trace: tr, Ctx: ctx})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s workers=%d: %q, %v; want context.Canceled", o.name, workers, got, err)
			}
			shards := 1
			if workers > 1 {
				shards = 4 * workers
			}
			if n := tr.Execs.Load(); n > int64(1+certain.PollInterval*shards) {
				t.Errorf("%s workers=%d: %d worlds after cancellation, want ≤ %d per shard",
					o.name, workers, n, certain.PollInterval)
			}
		}
	}
}
