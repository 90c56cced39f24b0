// Package obs is incdb's zero-dependency observability kernel: a metrics
// registry of atomic counters, fixed-bucket histograms and gauges computed
// at scrape time that renders itself in the Prometheus text exposition
// format (version 0.0.4).
//
// Everything is plain standard library — sync/atomic words behind tiny
// wrappers — so the instrumented hot paths (query handlers, WAL fsyncs,
// per-world plan executions) pay one atomic add per event and nothing
// else. Rendering walks the registry under a read lock at scrape time;
// scrape-time collectors (CollectCounter/CollectGauge) additionally let a
// family read counters that live elsewhere (session cache stats, WAL
// sequence numbers), so /v1/metrics and /v1/status report from the same
// underlying atomics and can never disagree.
//
// A Registry is an instance, not a process global: every server owns its
// own, so tests (and the replication tests that run a primary and a
// follower in one process) never share series.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// LatencyBuckets are the default histogram bounds for durations in
// seconds: 100µs to 10s, roughly ×2.5 per step — wide enough for both a
// microsecond-scale cache hit and a multi-second oracle enumeration.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are the default histogram bounds for counts (records per
// fsync, batch sizes): powers of two up to 1024.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram: observation counts per upper
// bound (cumulative at render time, per-bucket in memory) plus sum and
// count — enough to derive rates, averages and quantile estimates.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf follows
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64

	// Exemplar state: the slowest observation that carried a trace ID,
	// rendered as an OpenMetrics-style exemplar on its bucket line so an
	// operator can jump from a histogram tail to the trace behind it.
	exMu  sync.Mutex
	exSet bool
	exVal float64
	exID  string
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	addFloat(&h.sum, v)
	h.count.Add(1)
}

// ObserveExemplar records v like Observe and, when traceID is non-empty
// and v is the largest such observation so far, remembers the trace ID
// as the histogram's exemplar.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	h.exMu.Lock()
	if !h.exSet || v > h.exVal {
		h.exSet, h.exVal, h.exID = true, v, traceID
	}
	h.exMu.Unlock()
}

// exemplar returns the recorded exemplar, if any.
func (h *Histogram) exemplar() (v float64, traceID string, ok bool) {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	return h.exVal, h.exID, h.exSet
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// addFloat atomically adds d to the float64 stored as bits in a.
func addFloat(a *atomic.Uint64, d float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// metricKind is the TYPE line of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// family is one metric name: its metadata and either static children
// (keyed by joined label values) or a scrape-time collector.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	bounds  []float64 // histograms only
	collect func(emit func(value float64, labelVals ...string))
	gauge   func() float64 // GaugeFunc

	mu       sync.Mutex
	children map[string]any // joined label values → *Counter | *Histogram
	order    []string       // insertion-keyed; sorted at render
}

func (f *family) child(make func() any, vals ...string) any {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s expects %d label value(s), got %d", f.name, len(f.labels), len(vals)))
	}
	key := strings.Join(vals, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = make()
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// Registry holds metric families and renders them; safe for concurrent
// registration, updates and rendering.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

// register returns the family for name, creating it on first use. A
// re-registration must agree on the kind (help/labels of the first win).
func (r *Registry) register(name, help string, kind metricKind, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, children: map[string]any{}}
	r.fams[name] = f
	return f
}

// Counter returns the registered (or a new) unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil)
	return f.child(func() any { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the registered (or a new) labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels)}
}

// With returns the child counter for the given label values.
func (cv *CounterVec) With(vals ...string) *Counter {
	return cv.f.child(func() any { return &Counter{} }, vals...).(*Counter)
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil)
	f.gauge = fn
}

// Histogram returns the registered (or a new) unlabeled histogram with the
// given ascending bucket upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, kindHistogram, nil)
	f.bounds = bounds
	return f.child(func() any { return newHistogram(bounds) }).(*Histogram)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the registered (or a new) labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	f := r.register(name, help, kindHistogram, labels)
	f.bounds = bounds
	return &HistogramVec{f}
}

// With returns the child histogram for the given label values.
func (hv *HistogramVec) With(vals ...string) *Histogram {
	return hv.f.child(func() any { return newHistogram(hv.f.bounds) }, vals...).(*Histogram)
}

// CollectCounter registers a counter family whose series are produced by
// collect at scrape time — the bridge for counters that already live
// elsewhere (cache stats, WAL sequence state): status endpoints and
// /v1/metrics then read the same atomics and cannot disagree.
func (r *Registry) CollectCounter(name, help string, labels []string, collect func(emit func(value float64, labelVals ...string))) {
	f := r.register(name, help, kindCounter, labels)
	f.collect = collect
}

// CollectGauge is CollectCounter for gauges.
func (r *Registry) CollectGauge(name, help string, labels []string, collect func(emit func(value float64, labelVals ...string))) {
	f := r.register(name, help, kindGauge, labels)
	f.collect = collect
}

// WritePrometheus renders every family in the text exposition format,
// families and series in deterministic (sorted) order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.RUnlock()
	for _, f := range fams {
		f.write(w)
	}
}

func (f *family) write(w io.Writer) {
	if f.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
	if f.gauge != nil {
		fmt.Fprintf(w, "%s %s\n", f.name, fmtValue(f.gauge()))
		return
	}
	if f.collect != nil {
		// Gather, then sort: collectors emit in whatever order their source
		// iterates, the exposition stays deterministic.
		type row struct {
			labels string
			value  float64
		}
		var rows []row
		f.collect(func(value float64, labelVals ...string) {
			rows = append(rows, row{labelString(f.labels, labelVals, "", ""), value})
		})
		sort.Slice(rows, func(i, j int) bool { return rows[i].labels < rows[j].labels })
		for _, s := range rows {
			fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, fmtValue(s.value))
		}
		return
	}
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	children := make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()
	for i, key := range keys {
		var vals []string
		if key != "" || len(f.labels) > 0 {
			vals = strings.Split(key, "\x00")
		}
		switch c := children[i].(type) {
		case *Counter:
			fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, vals, "", ""), c.Value())
		case *Histogram:
			exVal, exID, exOK := c.exemplar()
			cum := uint64(0)
			for bi, bound := range c.bounds {
				cum += c.counts[bi].Load()
				fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name,
					labelString(f.labels, vals, "le", fmtValue(bound)), cum,
					exemplarSuffix(exOK && exVal <= bound && (bi == 0 || exVal > c.bounds[bi-1]), exID, exVal))
			}
			cum += c.counts[len(c.bounds)].Load()
			fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name, labelString(f.labels, vals, "le", "+Inf"), cum,
				exemplarSuffix(exOK && len(c.bounds) > 0 && exVal > c.bounds[len(c.bounds)-1], exID, exVal))
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, vals, "", ""), fmtValue(c.Sum()))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, vals, "", ""), c.Count())
		}
	}
}

// exemplarSuffix renders the OpenMetrics exemplar trailer for the one
// bucket line that contains the exemplar observation, "" elsewhere.
// Parsers of the 0.0.4 text format that split on whitespace still read
// the sample value unchanged (it stays field two).
func exemplarSuffix(on bool, traceID string, v float64) string {
	if !on {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=\"%s\"} %s", escapeLabel(traceID), fmtValue(v))
}

// labelString renders {a="x",b="y"} (plus an optional extra label, for
// histogram le); empty when there are no labels at all.
func labelString(names, vals []string, extraName, extraVal string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// fmtValue renders a float the Prometheus way: integers without a
// fraction, everything else in shortest round-trip form.
func fmtValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
