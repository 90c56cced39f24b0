package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestConcurrentUpdates hammers one counter and histogram from many
// goroutines; run under -race this is the registry's thread-safety test.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h_seconds", "", LatencyBuckets)
	cv := r.CounterVec("cv_total", "", "k")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.001)
				cv.With("a").Inc()
				if w == 0 {
					// Concurrent render while updates are in flight.
					var sb strings.Builder
					r.WritePrometheus(&sb)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
	if got, want := h.Sum(), float64(workers*per)*0.001; got < want*0.999 || got > want*1.001 {
		t.Fatalf("histogram sum = %v, want ≈%v", got, want)
	}
	if got := cv.With("a").Value(); got != workers*per {
		t.Fatalf("countervec = %d, want %d", got, workers*per)
	}
}

// TestExpositionFormat is the golden test for the text renderer: exact
// bytes, sorted families and series, cumulative buckets, escaping.
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last by name").Add(3)
	cv := r.CounterVec("aa_requests_total", "first by name", "code", "proc")
	cv.With("ok", "cert").Add(2)
	cv.With(`we"ird`, "a\\b").Inc()
	r.GaugeFunc("bb_inflight", "a gauge", func() float64 { return 1.5 })
	h := r.Histogram("cc_seconds", "a histogram", []float64{0.5, 1})
	h.Observe(0.1)
	h.Observe(0.6)
	h.Observe(5)
	r.GaugeFunc("dd_uptime_seconds", "computed", func() float64 { return 42 })
	r.CollectGauge("ee_lag", "collected", []string{"session"}, func(emit func(float64, ...string)) {
		emit(7, "zeta")
		emit(0, "alpha")
	})

	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := `# HELP aa_requests_total first by name
# TYPE aa_requests_total counter
aa_requests_total{code="ok",proc="cert"} 2
aa_requests_total{code="we\"ird",proc="a\\b"} 1
# HELP bb_inflight a gauge
# TYPE bb_inflight gauge
bb_inflight 1.5
# HELP cc_seconds a histogram
# TYPE cc_seconds histogram
cc_seconds_bucket{le="0.5"} 1
cc_seconds_bucket{le="1"} 2
cc_seconds_bucket{le="+Inf"} 3
cc_seconds_sum 5.7
cc_seconds_count 3
# HELP dd_uptime_seconds computed
# TYPE dd_uptime_seconds gauge
dd_uptime_seconds 42
# HELP ee_lag collected
# TYPE ee_lag gauge
ee_lag{session="alpha"} 0
ee_lag{session="zeta"} 7
# HELP zz_total last by name
# TYPE zz_total counter
zz_total 3
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistrationIdempotent: registering the same name twice returns the
// same underlying series.
func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "")
	b := r.Counter("x_total", "ignored second help")
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("second registration returned a different counter")
	}
	v1 := r.CounterVec("y_total", "", "k")
	v2 := r.CounterVec("y_total", "", "k")
	v1.With("z").Add(2)
	if v2.With("z").Value() != 2 {
		t.Fatalf("second vec registration returned different children")
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("e_seconds", "", []float64{1, 2})
	h.Observe(1)   // le="1" (bounds are inclusive upper limits)
	h.Observe(1.5) // le="2"
	h.Observe(3)   // +Inf
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, line := range []string{
		`e_seconds_bucket{le="1"} 1`,
		`e_seconds_bucket{le="2"} 2`,
		`e_seconds_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("missing %q in:\n%s", line, out)
		}
	}
}
