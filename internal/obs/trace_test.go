package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceParentRoundTrip(t *testing.T) {
	sc := NewSpanContext(true)
	tp := sc.TraceParent()
	if !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("traceparent %q: want version 00 and sampled flags 01", tp)
	}
	got, ok := ParseTraceParent(tp)
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}

	sc.Sampled = false
	got, ok = ParseTraceParent(sc.TraceParent())
	if !ok || got.Sampled {
		t.Fatalf("unsampled round trip: got %+v ok=%v", got, ok)
	}

	if tp := (SpanContext{}).TraceParent(); tp != "" {
		t.Fatalf("invalid context rendered %q, want empty", tp)
	}
}

func TestParseTraceParentRejects(t *testing.T) {
	valid := NewSpanContext(true).TraceParent()
	bad := []string{
		"",
		"garbage",
		strings.Replace(valid, "00-", "01-", 1), // unknown version
		valid[:len(valid)-1],                    // truncated flags
		"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01",     // zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",    // zero span ID
		"00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7-01",      // short trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-00", // extra field
		"00-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-00f067aa0ba902b7-01",    // non-hex
	}
	for _, s := range bad {
		if sc, ok := ParseTraceParent(s); ok {
			t.Errorf("ParseTraceParent(%q) accepted as %+v", s, sc)
		}
	}
}

// TestSamplingDeterministic: the head-sampling coin is a pure function of
// the trace ID, so two tracers at the same rate always agree — the
// property that lets a primary and its replicas decide independently.
func TestSamplingDeterministic(t *testing.T) {
	kept := 0
	const n = 2000
	for i := 0; i < n; i++ {
		id := randTraceID()
		a, b := sampleTrace(id, 0.5), sampleTrace(id, 0.5)
		if a != b {
			t.Fatalf("sampleTrace not deterministic for %s", id)
		}
		if !sampleTrace(id, 1.0) {
			t.Fatalf("rate 1.0 dropped %s", id)
		}
		if sampleTrace(id, 0) {
			t.Fatalf("rate 0 kept %s", id)
		}
		if a {
			kept++
		}
	}
	// The coin is uniform over the trace-ID prefix: at rate 0.5, wildly
	// skewed keep counts mean the hash is broken (P(outside) < 1e-80).
	if kept < n/4 || kept > 3*n/4 {
		t.Fatalf("rate 0.5 kept %d of %d", kept, n)
	}
}

func TestSpanTreePublishes(t *testing.T) {
	tr := NewTracer(1.0, 64)
	root := tr.StartRoot("GET /x", SpanContext{})
	child := root.StartChild("evaluate")
	child.Attr("proc", "cert")
	child.End()
	grand := root.StartChild("wal.commit")
	grand.End()
	root.End()

	spans := tr.Trace(root.TraceID())
	if len(spans) != 3 {
		t.Fatalf("stored %d spans, want 3: %+v", len(spans), spans)
	}
	byName := map[string]SpanData{}
	for _, d := range spans {
		byName[d.Name] = d
	}
	if byName["evaluate"].ParentID != byName["GET /x"].SpanID {
		t.Errorf("child not parented on root: %+v", byName)
	}
	if byName["evaluate"].Attrs["proc"] != "cert" {
		t.Errorf("child attrs lost: %+v", byName["evaluate"])
	}
	if byName["GET /x"].ParentID != "" || byName["GET /x"].Remote {
		t.Errorf("root has a parent: %+v", byName["GET /x"])
	}

	recent := tr.Recent(10)
	if len(recent) != 1 || recent[0].Name != "GET /x" {
		t.Errorf("Recent = %+v, want just the root", recent)
	}
}

// TestUnsampledDiscarded: when the coin says drop, nothing reaches the
// ring — including children that end after the root.
func TestUnsampledDiscarded(t *testing.T) {
	tr := NewTracer(0.000001, 64) // all but certainly unsampled
	for i := 0; i < 20; i++ {
		root := tr.StartRoot("GET /x", SpanContext{})
		if root.Sampled() {
			continue // astronomically unlikely; skip the iteration
		}
		child := root.StartChild("evaluate")
		child.End()
		root.End()
		late := root.StartChild("late")
		late.End()
		if got := tr.Trace(root.TraceID()); len(got) != 0 {
			t.Fatalf("unsampled trace stored %d spans", len(got))
		}
	}
	if got := tr.Recent(10); len(got) != 0 {
		t.Fatalf("Recent = %+v, want empty", got)
	}
}

// TestForceAndErrorPublish: slow (Force) and failed (SetError) requests
// are captured even when head sampling said drop.
func TestForceAndErrorPublish(t *testing.T) {
	tr := NewTracer(0, 64) // never sampled by the coin
	carried := SpanContext{TraceID: randTraceID(), SpanID: randSpanID(), Sampled: false}

	forced := tr.StartRoot("slow", carried)
	forced.StartChild("evaluate").End()
	forced.Force()
	forced.End()
	if got := tr.Trace(forced.TraceID()); len(got) != 2 {
		t.Fatalf("forced trace stored %d spans, want 2", len(got))
	}

	failed := tr.StartRoot("boom", SpanContext{})
	failed.SetError("http 500")
	failed.End()
	if got := tr.Trace(failed.TraceID()); len(got) != 1 || got[0].Error != "http 500" {
		t.Fatalf("failed trace = %+v, want 1 span with the error", got)
	}
}

// TestCarriedDecisionHonored: an incoming traceparent overrides the local
// coin in both directions.
func TestCarriedDecisionHonored(t *testing.T) {
	never := NewTracer(0, 64)
	sampledParent := NewSpanContext(true)
	sp := never.StartRoot("GET /x", sampledParent)
	if !sp.Sampled() {
		t.Fatalf("carried sampled flag ignored at rate 0")
	}
	sp.End()
	got := never.Trace(sampledParent.TraceID.String())
	if len(got) != 1 || !got[0].Remote || got[0].ParentID != sampledParent.SpanID.String() {
		t.Fatalf("adopted root = %+v, want remote parent link", got)
	}

	always := NewTracer(1, 64)
	droppedParent := NewSpanContext(false)
	sp = always.StartRoot("GET /x", droppedParent)
	if sp.Sampled() {
		t.Fatalf("carried unsampled flag ignored at rate 1")
	}
	sp.End()
	if got := always.Trace(droppedParent.TraceID.String()); len(got) != 0 {
		t.Fatalf("carried-drop trace stored %d spans", len(got))
	}
}

func TestStartLinkedGating(t *testing.T) {
	tr := NewTracer(1, 64)
	if sp := tr.StartLinked("wal.fsync", SpanContext{}, false); sp != nil {
		t.Fatalf("StartLinked accepted an invalid parent")
	}
	if sp := tr.StartLinked("wal.fsync", NewSpanContext(false), false); sp != nil {
		t.Fatalf("StartLinked accepted an unsampled parent")
	}
	parent := NewSpanContext(true)
	sp := tr.StartLinked("replica.apply", parent, true)
	start := time.Now().Add(-time.Second)
	sp.SetStart(start)
	sp.EndWithDuration(250 * time.Millisecond)
	got := tr.Trace(parent.TraceID.String())
	if len(got) != 1 {
		t.Fatalf("linked span not stored: %+v", got)
	}
	if got[0].ParentID != parent.SpanID.String() || !got[0].Remote {
		t.Errorf("linked span = %+v, want remote parent %s", got[0], parent.SpanID)
	}
	if got[0].DurationUs != 250_000 || !got[0].Start.Equal(start) {
		t.Errorf("explicit start/duration lost: %+v", got[0])
	}
	// Remote-parented spans count as roots: the replica's listing shows
	// applied writes without needing the primary's half of the trace.
	if recent := tr.Recent(5); len(recent) != 1 {
		t.Errorf("Recent = %+v, want the linked span", recent)
	}
}

// TestRingBounds: the ring never holds more than its capacity; the newest
// spans survive.
func TestRingBounds(t *testing.T) {
	const capacity = 8
	tr := NewTracer(1, capacity)
	var last *Span
	for i := 0; i < 3*capacity; i++ {
		sp := tr.StartRoot(fmt.Sprintf("r%d", i), SpanContext{})
		sp.End()
		last = sp
	}
	all := tr.Recent(10 * capacity)
	if len(all) != capacity {
		t.Fatalf("ring holds %d spans, want %d", len(all), capacity)
	}
	if all[0].TraceID != last.TraceID() {
		t.Errorf("newest span missing: got %+v", all[0])
	}
	if tr.Recent(0) == nil || len(tr.Recent(0)) != capacity {
		t.Errorf("Recent(0) should apply the default limit")
	}
}

// TestNilSafety: a nil tracer and nil spans absorb every call — the
// disabled-tracing fast path the server relies on.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("x", SpanContext{})
	if sp != nil {
		t.Fatalf("nil tracer returned a span")
	}
	child := sp.StartChild("y")
	child.Attr("k", "v")
	child.SetError("e")
	child.Force()
	child.SetStart(time.Now())
	child.End()
	child.EndWithDuration(time.Second)
	if sp.TraceID() != "" || sp.Sampled() || sp.ExemplarRef() != "" || sp.Context().Valid() {
		t.Fatalf("nil span leaked identity")
	}
	if tr.Recent(5) != nil || tr.Trace("abc") != nil {
		t.Fatalf("nil tracer returned spans")
	}
	if got := SpanFromContext(ContextWithSpan(t.Context(), nil)); got != nil {
		t.Fatalf("nil span stored in context")
	}
}

// TestConcurrentSpans exercises the buffer and ring under contention (run
// with -race). The ring holds every span the test stores, so no trace is
// evicted before it is read: the subject is contention, and TestRingBounds
// covers eviction.
func TestConcurrentSpans(t *testing.T) {
	const goroutines, traces, spans = 8, 50, 4
	tr := NewTracer(1, goroutines*traces*spans)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < traces; i++ {
				root := tr.StartRoot("req", SpanContext{})
				var cwg sync.WaitGroup
				for c := 0; c < spans-1; c++ {
					cwg.Add(1)
					go func(c int) {
						defer cwg.Done()
						sp := root.StartChild("child")
						sp.Attr("c", fmt.Sprint(c))
						sp.End()
					}(c)
				}
				cwg.Wait()
				root.End()
				if got := tr.Trace(root.TraceID()); len(got) != spans {
					t.Errorf("trace holds %d spans, want %d", len(got), spans)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEndIdempotent: double End stores one span.
func TestEndIdempotent(t *testing.T) {
	tr := NewTracer(1, 64)
	sp := tr.StartRoot("x", SpanContext{})
	sp.End()
	sp.End()
	if got := tr.Trace(sp.TraceID()); len(got) != 1 {
		t.Fatalf("double End stored %d spans", len(got))
	}
}
