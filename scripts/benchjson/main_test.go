package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// writeRuns writes ns/op samples of one benchmark as `go test -bench` lines,
// one per round, and parses them back.
func writeRuns(t *testing.T, name string, ns []float64) map[string][]stats {
	t.Helper()
	var b strings.Builder
	for _, v := range ns {
		fmt.Fprintf(&b, "BenchmarkE11NaiveEval/oracle-2\t100\t%.0f ns/op\t4000 B/op\t125 allocs/op\n", v)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	runs, err := parse(path)
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

var gated = regexp.MustCompile(`BenchmarkE1Figure1|BenchmarkE11NaiveEval`)

// TestGatePairsRounds: the gate compares the sides round by round, so drift
// inside one run that falls on different rounds of the two sides passes,
// while a change that is slower in every round fails.
func TestGatePairsRounds(t *testing.T) {
	// The base side is fast in rounds 1–5 and slow in 6–8; the working tree
	// is slow in rounds 3–8. Per-side medians read +43 %, every round but
	// three reads within 4 %.
	base := []float64{14000, 15000, 16000, 16800, 14500, 25000, 28000, 30000}
	for _, tc := range []struct {
		name  string
		after []float64
		ok    bool
	}{
		{"drift", []float64{14500, 15500, 22000, 25000, 23000, 24000, 26000, 29000}, true},
		{"slower in every round", scaled(base, 1.4), false},
	} {
		got, err := compare(writeRuns(t, "old.txt", base), writeRuns(t, tc.name+".txt", tc.after))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c := got["BenchmarkE11NaiveEval/oracle"]
		if tc.ok && c.After.Ns/c.Before.Ns < 1.25 {
			t.Fatalf("%s: per-side medians %v → %v would not have failed the old gate", tc.name, c.Before.Ns, c.After.Ns)
		}
		if ok := gateOK(got, gated, 25); ok != tc.ok {
			t.Errorf("%s: gate ok = %v (paired ratio %.3f), want %v", tc.name, ok, c.PairedNs, tc.ok)
		}
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// TestUnequalSampleCountsRefused: rounds that cannot be paired are an error,
// not a comparison of whatever samples there are.
func TestUnequalSampleCountsRefused(t *testing.T) {
	old := writeRuns(t, "old.txt", []float64{100, 110, 120})
	if _, err := compare(old, writeRuns(t, "new.txt", []float64{100, 110})); err == nil {
		t.Fatal("unequal sample counts compared without an error")
	}
}
