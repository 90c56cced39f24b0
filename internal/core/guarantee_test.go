package core

import (
	"math/rand"
	"strings"
	"testing"

	"incdb/internal/certain"
	"incdb/internal/gen"
	"incdb/internal/relation"
)

// TestServedGuarantees runs every served row of the procedure table over
// internal/gen instances and checks the guarantees the table states
// between them:
//
//   - Q⁺ ⊆ cert⊥ ⊆ Q? (Thm 4.7), and cert∩ ⊆ cert⊥;
//   - naive = cert⊥ on queries without difference or negation (Thm 4.4);
//   - cert⊥ and cert∩ are unchanged, up to the renaming, when the nulls of
//     the database are renamed;
//   - every c-table strategy's certain part lies inside cert⊥ (Thm 4.9).
//
// Short mode checks 60 instances of gen.DefaultConfig; long mode checks 300,
// drawing their nulls from a pool of four instead of three.
func TestServedGuarantees(t *testing.T) {
	trials, cfg := 60, gen.DefaultConfig()
	if !testing.Short() {
		trials, cfg = 300, gen.Config{MaxTuples: 4, NullRate: 0.3, NullPool: 4, ConstPool: 4}
	}
	frags := []gen.Fragment{gen.FragmentUCQ, gen.FragmentPosForallG, gen.FragmentFull}
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		db := gen.DB(r, cfg)
		qcfg := gen.DefaultQueryConfig()
		qcfg.Fragment = frags[trial%len(frags)]
		if qcfg.Fragment == gen.FragmentFull && trial%2 == 1 {
			qcfg.InSubRate = 0.3
		}
		q := gen.Query(r, qcfg, 1+trial%2)

		got := map[string][]*relation.Relation{}
		for i := range Procs {
			p := &Procs[i]
			if !p.Served {
				continue
			}
			res, err := Run(p, db, q, false, certain.Options{})
			switch {
			case err == nil:
				for _, r := range res {
					got[p.Name] = append(got[p.Name], r.Relation())
				}
			case strings.Contains(err.Error(), "outside the"):
				// A row may refuse a query outside its fragment: Figure 2
				// and the c-tables take no division.
			default:
				t.Fatalf("trial %d: %s(%s): %v", trial, p.Name, q, err)
			}
		}
		cert, inter := got["cert"][0], got["inter"][0]
		subset := func(what string, small, big *relation.Relation) {
			if !small.SubsetOfSet(big) {
				t.Errorf("trial %d: %s fails on %s\n%s ⊄ %s\ndb:\n%s", trial, what, q, small, big, db)
			}
		}
		if got["plus"] != nil {
			subset("Q⁺ ⊆ cert⊥", got["plus"][0], cert)
			subset("cert⊥ ⊆ Q?", cert, got["poss"][0])
		}
		subset("cert∩ ⊆ cert⊥", inter, cert)
		for _, name := range []string{"ctable-eager", "ctable-semi", "ctable-lazy", "ctable-aware"} {
			if got[name] != nil {
				subset(name+" certain part ⊆ cert⊥", got[name][0], cert)
			}
		}
		if qcfg.Fragment != gen.FragmentFull && !got["naive"][0].EqualSet(cert) {
			t.Errorf("trial %d: naive = %s, cert⊥ = %s on %s\ndb:\n%s", trial, got["naive"][0], cert, q, db)
		}

		// Rename every null injectively and out of order, so the valuation
		// space is enumerated in another order too.
		ren, back := map[uint64]uint64{}, map[uint64]uint64{}
		for _, id := range db.NullIDs() {
			ren[id], back[100-7*id] = 100-7*id, id
		}
		renamed := db.RenameNulls(ren)
		for name, want := range map[string]*relation.Relation{"cert": cert, "inter": inter} {
			res, err := Run(Lookup(name), renamed, q, false, certain.Options{})
			if err != nil {
				t.Fatalf("trial %d: %s over renamed nulls: %v", trial, name, err)
			}
			if res := renameNulls(res[0].Relation(), back); !res.EqualSet(want) {
				t.Errorf("trial %d: %s(%s) = %s over renamed nulls, %s before", trial, name, q, res, want)
			}
		}
	}
}

// renameNulls applies the null renaming m to r.
func renameNulls(r *relation.Relation, m map[uint64]uint64) *relation.Relation {
	return relation.NewDatabase().Add(r.Rename("r")).RenameNulls(m).Relation("r")
}
