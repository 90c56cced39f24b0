package value

import (
	"math"
	"math/big"
	"strings"
	"testing"
)

func enumToStrings(ids []uint64, rng []Value, lo, hi int) []string {
	var out []string
	EnumValuations(ids, Uniform(len(ids), rng), lo, hi, func(v Valuation) bool {
		out = append(out, v.String())
		return true
	})
	return out
}

func TestEnumSize(t *testing.T) {
	rng := []Value{Const("a"), Const("b"), Const("c")}
	if got := EnumSize(nil); got != 1 {
		t.Errorf("EnumSize(0 ids) = %d, want 1", got)
	}
	if got := EnumSize(Uniform(2, rng)); got != 9 {
		t.Errorf("EnumSize(2 ids, 3 consts) = %d, want 9", got)
	}
	if got := EnumSize(Uniform(64, rng)); got != -1 {
		t.Errorf("EnumSize(3^64) = %d, want -1 (overflow)", got)
	}
	if got := EnumSize([][]Value{rng, rng[:1], rng[:2]}); got != 6 {
		t.Errorf("EnumSize(3·1·2) = %d, want 6", got)
	}
	if got := EnumSize([][]Value{rng, nil}); got != 0 {
		t.Errorf("EnumSize(3·0) = %d, want 0", got)
	}
	// 2^62 fits, one more factor 3 does not, whichever radix comes first.
	big := append(Uniform(62, rng[:2]), rng)
	if got := EnumSize(big); got != -1 {
		t.Errorf("EnumSize(2^62·3) = %d, want -1 (overflow)", got)
	}
	if got := EnumSize(append([][]Value{rng}, Uniform(62, rng[:2])...)); got != -1 {
		t.Errorf("EnumSize(3·2^62) = %d, want -1 (overflow)", got)
	}
}

// TestEnumSizeMatchesBig checks EnumSize against exact arithmetic on every
// (range, nulls) pair around the int boundary, including the powers of two
// whose int products wrap to exactly zero (32^16 = 2^80).
func TestEnumSizeMatchesBig(t *testing.T) {
	maxInt := big.NewInt(math.MaxInt)
	for r := 0; r <= 70; r++ {
		rng := make([]Value, r)
		for n := 0; n <= 70; n++ {
			want := new(big.Int).Exp(big.NewInt(int64(r)), big.NewInt(int64(n)), nil)
			if want.Cmp(maxInt) > 0 {
				want.SetInt64(-1)
			}
			if got := EnumSize(Uniform(n, rng)); int64(got) != want.Int64() {
				t.Fatalf("EnumSize(%d nulls, %d values) = %d, want %s", n, r, got, want)
			}
		}
	}
}

func TestEnumMatchesNestedLoops(t *testing.T) {
	ids := []uint64{3, 1, 7}
	rng := []Value{Const("a"), Const("b")}
	var want []string
	v := NewValuation()
	for _, c0 := range rng {
		for _, c1 := range rng {
			for _, c2 := range rng {
				v.Set(ids[0], c0)
				v.Set(ids[1], c1)
				v.Set(ids[2], c2)
				want = append(want, v.String())
			}
		}
	}
	got := enumToStrings(ids, rng, 0, 8)
	if len(got) != len(want) {
		t.Fatalf("enumerated %d valuations, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("valuation %d: %s, want %s", i, got[i], want[i])
		}
	}
}

// TestEnumMixedRadix: one radix per null, in the nested-loop order, and any
// cut of the index range concatenates back to the full enumeration.
func TestEnumMixedRadix(t *testing.T) {
	ids := []uint64{3, 1, 7}
	rngs := [][]Value{{Const("a"), Const("b")}, {Const("x"), Const("y"), Const("z")}, {Const("k")}}
	var want []string
	v := NewValuation()
	for _, c0 := range rngs[0] {
		for _, c1 := range rngs[1] {
			for _, c2 := range rngs[2] {
				v.Set(ids[0], c0)
				v.Set(ids[1], c1)
				v.Set(ids[2], c2)
				want = append(want, v.String())
			}
		}
	}
	if size := EnumSize(rngs); size != len(want) {
		t.Fatalf("EnumSize = %d, want %d", size, len(want))
	}
	for _, cut := range [][]int{{0, 6}, {0, 1, 4, 6}, {0, 2, 2, 5, 6}} {
		var got []string
		for i := 0; i+1 < len(cut); i++ {
			EnumValuations(ids, rngs, cut[i], cut[i+1], func(v Valuation) bool {
				got = append(got, v.String())
				return true
			})
		}
		if strings.Join(got, ";") != strings.Join(want, ";") {
			t.Errorf("cuts %v: %v, want %v", cut, got, want)
		}
	}
}

func TestEnumRangeConcatenationEqualsFullEnumeration(t *testing.T) {
	ids := []uint64{1, 2}
	rng := []Value{Const("x"), Const("y"), Const("z")}
	full := enumToStrings(ids, rng, 0, 9)
	for _, cut := range [][]int{{0, 9}, {0, 4, 9}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {0, 3, 3, 9}} {
		var pieces []string
		for i := 0; i+1 < len(cut); i++ {
			pieces = append(pieces, enumToStrings(ids, rng, cut[i], cut[i+1])...)
		}
		if strings.Join(pieces, ";") != strings.Join(full, ";") {
			t.Errorf("cuts %v: %v != full %v", cut, pieces, full)
		}
	}
}

func TestEnumEmptyIDs(t *testing.T) {
	if got := enumToStrings(nil, []Value{Const("a")}, 0, 1); len(got) != 1 || got[0] != "{}" {
		t.Errorf("empty ids: %v, want one empty valuation", got)
	}
	if got := enumToStrings(nil, []Value{Const("a")}, 1, 5); got != nil {
		t.Errorf("empty ids out of range: %v, want none", got)
	}
}

func TestEnumClampsAndStops(t *testing.T) {
	ids := []uint64{1}
	rng := []Value{Const("a"), Const("b"), Const("c")}
	if got := enumToStrings(ids, rng, -5, 99); len(got) != 3 {
		t.Errorf("clamped enumeration yielded %d, want 3", len(got))
	}
	n := 0
	EnumValuations(ids, Uniform(1, rng), 0, 3, func(Valuation) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d, want 1", n)
	}
	if got := enumToStrings(ids, nil, 0, 5); got != nil {
		t.Errorf("empty range with ids: %v, want none", got)
	}
}
