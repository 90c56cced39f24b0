package value

import "math"

// Uniform returns the ranges of n nulls that all range over rng.
func Uniform(n int, rng []Value) [][]Value {
	rngs := make([][]Value, n)
	for i := range rngs {
		rngs[i] = rng
	}
	return rngs
}

// EnumSize returns the number of valuations that give the i-th null a value
// of rngs[i] — the product of the len(rngs[i]) — or -1 when that count
// overflows int, tested before each product (a wrapped one can be zero or
// positive). No nulls have exactly one valuation.
func EnumSize(rngs [][]Value) int {
	for _, rng := range rngs {
		if len(rng) == 0 {
			return 0 // a null to bind but nothing to bind it to
		}
	}
	count := 1
	for _, rng := range rngs {
		if count > math.MaxInt/len(rng) {
			return -1
		}
		count *= len(rng)
	}
	return count
}

// EnumValuations enumerates the valuations of ids, ids[i] into rngs[i],
// whose index lies in [lo, hi), calling f on each; return false from f to
// stop early. The index order is the mixed-radix odometer with one radix
// len(rngs[i]) per null and ids[0] as the most significant digit, i.e. the
// same nested-loop order a recursive enumeration over ids produces, so
// EnumValuations(ids, rngs, 0, size, f) visits valuations exactly as the
// serial oracles do. This is what lets parallel callers shard the index
// space into contiguous ranges and still merge results in the serial order.
//
// The Valuation passed to f is reused between calls; f must not retain it.
func EnumValuations(ids []uint64, rngs [][]Value, lo, hi int, f func(v Valuation) bool) {
	if len(ids) == 0 {
		if lo <= 0 && hi > 0 {
			f(NewValuation())
		}
		return
	}
	size := EnumSize(rngs)
	if size == 0 { // empty range with nulls to bind: no valuations
		return
	}
	lo = max(lo, 0)
	if size > 0 && hi > size {
		hi = size
	}
	if lo >= hi {
		return
	}
	digits := make([]int, len(ids))
	x := lo
	for i := len(ids) - 1; i >= 0; i-- {
		digits[i] = x % len(rngs[i])
		x /= len(rngs[i])
	}
	v := NewValuation()
	for i, d := range digits {
		v.Set(ids[i], rngs[i][d])
	}
	for idx := lo; idx < hi; idx++ {
		if !f(v) {
			return
		}
		for i := len(ids) - 1; i >= 0; i-- {
			digits[i]++
			if digits[i] < len(rngs[i]) {
				v.Set(ids[i], rngs[i][digits[i]])
				break
			}
			digits[i] = 0
			v.Set(ids[i], rngs[i][0])
		}
	}
}
