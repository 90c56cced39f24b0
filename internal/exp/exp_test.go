package exp

import (
	"math/big"
	"strings"
	"testing"
)

// The experiments are exercised in full by cmd/experiments; here we check
// that each one runs, returns non-empty output, and mentions its key
// artifact — a smoke net against harness regressions. The slowest sweeps
// (E3's timing reps, E12's oracle sweep) are gated behind -short.
func TestExperimentsRun(t *testing.T) {
	keyContent := map[string]string{
		"E1":  "false positive",
		"E2":  "Dom",
		"E3":  "overhead",
		"E4":  "□Q",
		"E5":  "aware",
		"E6":  "µ2",
		"E7":  "1/2",
		"E8":  "almost certainly false",
		"E9":  "{f, u, t}",
		"E10": "verified",
		"E11": "Counterexample",
		"E12": "precision",
	}
	slow := map[string]bool{"E3": true, "E12": true}
	for _, e := range All() {
		if testing.Short() && slow[e.ID] {
			continue
		}
		out := e.Run()
		if out == "" {
			t.Errorf("%s: empty output", e.ID)
			continue
		}
		if key := keyContent[e.ID]; !strings.Contains(out, key) {
			t.Errorf("%s: output missing %q", e.ID, key)
		}
	}
}

func TestAllExperimentsRegistered(t *testing.T) {
	if len(All()) != 12 {
		t.Fatalf("expected 12 experiments, got %d", len(All()))
	}
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("%s: incomplete registration", e.ID)
		}
	}
}

func TestTableRendering(t *testing.T) {
	out := table([]string{"a", "bb"}, [][]string{{"1", "2"}, {"3", "4"}})
	if !strings.Contains(out, "a") || !strings.Contains(out, "--") {
		t.Fatalf("table rendering broken: %q", out)
	}
}

// TestE11NaiveExactOnItsFragments: on every trial the oracle answers, naive
// evaluation is cert⊥ for the UCQ and Pos∀G queries (Theorem 4.4), and for
// some full-RA query it is not.
func TestE11NaiveExactOnItsFragments(t *testing.T) {
	tallies := e11Tallies()
	for i, name := range []string{"UCQ", "Pos∀G"} {
		if tl := tallies[i]; tl.answered == 0 || tl.exact != tl.answered {
			t.Errorf("%s: naive = cert⊥ on %d of %d answered trials (%d refused), want all", name, tl.exact, tl.answered, tl.refused)
		}
	}
	if tl := tallies[2]; tl.exact >= tl.answered {
		t.Errorf("full RA: naive = cert⊥ on %d of %d answered trials, want fewer", tl.exact, tl.answered)
	}
}

// TestE7PaperValues: µ(Q|Σ) of the S ⊆ T example is 1/2 and its
// unconditional µ is 1, every target p/r is realized exactly, and the FD
// example reads 1 both under Σ and on the chased database (Theorem 4.11).
// The rendered table must report µ(Q|Σ), not the unconditional value.
func TestE7PaperValues(t *testing.T) {
	v, err := e7Compute()
	if err != nil {
		t.Fatal(err)
	}
	one := big.NewRat(1, 1)
	if v.mu.Cmp(big.NewRat(1, 2)) != 0 || v.mu0.Cmp(one) != 0 {
		t.Errorf("µ(Q|Σ) = %s, µ(Q) = %s, want 1/2 and 1", v.mu.RatString(), v.mu0.RatString())
	}
	if len(v.realized) != len(v.targets) {
		t.Fatalf("%d targets, %d values", len(v.targets), len(v.realized))
	}
	for i, pr := range v.targets {
		if want := big.NewRat(int64(pr[0]), int64(pr[1])); v.realized[i].Cmp(want) != 0 {
			t.Errorf("target %s: µ(Q|Σ) = %s", want.RatString(), v.realized[i].RatString())
		}
	}
	if v.muFD.Cmp(one) != 0 || v.muChase.Cmp(one) != 0 {
		t.Errorf("FD example: µ under Σ = %s, on the chase = %s, want both 1", v.muFD.RatString(), v.muChase.RatString())
	}
	if out := E7ConditionalMu(); !strings.Contains(out, "µ(Q|Σ, D, ā)    = 1/2 ") {
		t.Errorf("E7 does not report µ(Q|Σ) = 1/2:\n%s", out)
	}
}
