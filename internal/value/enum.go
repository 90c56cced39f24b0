package value

import "math"

// EnumSize returns the number of valuations of ids into rng — len(rng)^len(ids)
// — or -1 when that count overflows int, tested before each product (a wrapped
// one can be zero or positive). A nil ids slice has exactly one valuation.
func EnumSize(ids []uint64, rng []Value) int {
	if len(ids) > 0 && len(rng) == 0 {
		return 0 // nulls to bind but nothing to bind them to
	}
	count := 1
	for range ids {
		if count > math.MaxInt/len(rng) {
			return -1
		}
		count *= len(rng)
	}
	return count
}

// EnumValuations enumerates the valuations of ids into rng whose index lies
// in [lo, hi), calling f on each; return false from f to stop early. The
// index order is the mixed-radix odometer with ids[0] as the most
// significant digit, i.e. the same nested-loop order a recursive
// enumeration over ids produces, so EnumValuations(ids, rng, 0, size, f)
// visits valuations exactly as the serial oracles do. This is what lets
// parallel callers shard the index space into contiguous ranges and still
// merge results in the serial order.
//
// The Valuation passed to f is reused between calls; f must not retain it.
func EnumValuations(ids []uint64, rng []Value, lo, hi int, f func(v Valuation) bool) {
	if len(ids) == 0 {
		if lo <= 0 && hi > 0 {
			f(NewValuation())
		}
		return
	}
	size := EnumSize(ids, rng)
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
	base := len(rng)
	digits := make([]int, len(ids))
	x := lo
	for i := len(ids) - 1; i >= 0; i-- {
		digits[i] = x % base
		x /= base
	}
	v := NewValuation()
	for i, d := range digits {
		v.Set(ids[i], rng[d])
	}
	for idx := lo; idx < hi; idx++ {
		if !f(v) {
			return
		}
		for i := len(ids) - 1; i >= 0; i-- {
			digits[i]++
			if digits[i] < base {
				v.Set(ids[i], rng[digits[i]])
				break
			}
			digits[i] = 0
			v.Set(ids[i], rng[0])
		}
	}
}
