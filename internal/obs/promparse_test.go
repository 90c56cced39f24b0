package obs

import (
	"bytes"
	"math"
	"testing"
)

// TestParsePromRoundTrip: whatever WritePrometheus emits, ParseProm reads
// back — names, labels (including escaped values), counter, gauge and
// every histogram series.
func TestParsePromRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("t_total", "help").Add(7)
	reg.CounterVec("t_labeled_total", "help", "proc", "session").With("cert", `we"ird\name`).Add(3)
	reg.GaugeFunc("t_gauge", "help", func() float64 { return -2.5 })
	h := reg.Histogram("t_seconds", "help", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	samples, err := ParseProm(&buf)
	if err != nil {
		t.Fatalf("ParseProm: %v", err)
	}
	get := func(name string, labels map[string]string) float64 {
		t.Helper()
		for _, s := range samples {
			if s.Name != name {
				continue
			}
			ok := true
			for k, v := range labels {
				if s.Label(k) != v {
					ok = false
				}
			}
			if ok {
				return s.Value
			}
		}
		t.Fatalf("no sample %s%v", name, labels)
		return 0
	}
	if got := get("t_total", nil); got != 7 {
		t.Errorf("t_total = %v, want 7", got)
	}
	if got := get("t_labeled_total", map[string]string{"proc": "cert", "session": `we"ird\name`}); got != 3 {
		t.Errorf("t_labeled_total = %v, want 3 (escaped label round-trip)", got)
	}
	if got := get("t_gauge", nil); got != -2.5 {
		t.Errorf("t_gauge = %v, want -2.5", got)
	}
	if got := get("t_seconds_bucket", map[string]string{"le": "0.1"}); got != 1 {
		t.Errorf("bucket le=0.1 = %v, want 1", got)
	}
	if got := get("t_seconds_bucket", map[string]string{"le": "+Inf"}); got != 3 {
		t.Errorf("bucket le=+Inf = %v, want 3", got)
	}
	if got := get("t_seconds_count", nil); got != 3 {
		t.Errorf("count = %v, want 3", got)
	}
	if got := get("t_seconds_sum", nil); math.Abs(got-5.55) > 1e-9 {
		t.Errorf("sum = %v, want 5.55", got)
	}
}

// TestBucketsQuantile: quantiles interpolate linearly inside the
// containing bucket and clamp at the last finite edge for the overflow
// bucket.
func TestBucketsQuantile(t *testing.T) {
	var b Buckets
	b.AddBucket(0.1, 10)
	b.AddBucket(1, 20)
	b.AddBucket(math.Inf(1), 20)
	// Cumulative counts: 10 under 0.1, 20 under 1, 20 total. The median
	// rank (10) lands exactly on the 0.1 edge.
	if got := b.Quantile(0.5); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("p50 = %v, want 0.1", got)
	}
	// Rank 15 is halfway through the (0.1, 1] bucket.
	if got := b.Quantile(0.75); math.Abs(got-0.55) > 1e-9 {
		t.Errorf("p75 = %v, want 0.55", got)
	}
	// Rank within the overflow bucket clamps to the last finite edge.
	var c Buckets
	c.AddBucket(0.1, 1)
	c.AddBucket(math.Inf(1), 10)
	if got := c.Quantile(0.99); got != 0.1 {
		t.Errorf("overflow p99 = %v, want 0.1 (last finite edge)", got)
	}
	var empty Buckets
	if got := empty.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %v, want NaN", got)
	}
}
