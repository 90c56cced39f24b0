package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/raparse"
	"incdb/internal/tpch"
)

// opStream renders everything generate produces as one string.
func opStream(t *testing.T, workload string, seed int64) string {
	t.Helper()
	in, err := generate(workload, seed, 50, 400, 50)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(in.dbText)
	for _, ops := range [][]op{in.warmup, in.ops, in.traced} {
		for _, o := range ops {
			fmt.Fprintf(&b, "%v|%d|%s|%s|%s|%s\n", o.write, o.qid, o.proc, o.text, o.rel, o.key)
		}
	}
	return b.String()
}

func TestGeneratorIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, b, c := opStream(t, w, 7), opStream(t, w, 7), opStream(t, w, 8)
		if a != b {
			t.Errorf("%s: the same seed gave two different operation streams", w)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same operation stream", w)
		}
	}
}

func TestTPCHQueryTexts(t *testing.T) {
	want := append(tpch.Queries(), tpch.MultiJoinQueries()...)
	if len(want) != len(tpchQueries) {
		t.Fatalf("%d query texts for %d tpch queries", len(tpchQueries), len(want))
	}
	db := tpch.Dirty(tpch.Generate(tpch.Config{Customers: 20, OrdersPerCustomer: 2, ItemsPerOrder: 2, Nations: 4, Regions: 2, Seed: 2}), 0.1, 0, 3)
	for i, text := range tpchQueries {
		q, err := raparse.ParseQuery(text)
		if err != nil {
			t.Fatalf("Q%d: %v", i+1, err)
		}
		if got := fmt.Sprint(q); got != fmt.Sprint(want[i].Q) {
			t.Errorf("Q%d parses to\n  %s\nthe package builds\n  %s", i+1, got, want[i].Q)
		}
		ref, ok := tpchReference[i]
		if !ok {
			continue
		}
		r, err := raparse.ParseQuery(ref)
		if err != nil {
			t.Fatalf("Q%d reference: %v", i+1, err)
		}
		for _, mode := range []algebra.Mode{algebra.ModeSQL, algebra.ModeNaive} {
			a, b := algebra.EvalInterp(db, q, mode), algebra.EvalInterp(db, r, mode)
			if a.Len() == 0 || !a.EqualSet(b) {
				t.Errorf("Q%d under %v: the reference spelling answers %d rows, the query %d", i+1, mode, b.Len(), a.Len())
			}
		}
	}
}

func TestRespellKeepsTheQueryAndOutlivesTheResultCache(t *testing.T) {
	for _, text := range append(append([]string(nil), tpchQueries...), nullWorldsQueries...) {
		if p := respellPeriod(text); p <= 2*resultCacheCap {
			t.Errorf("%q has only %d spellings, the result cache holds %d", text, p, resultCacheCap)
		}
		want, err := raparse.ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for n := 0; n < 600; n++ {
			s := respell(text, n)
			if seen[s] {
				t.Fatalf("%q: spelling %d repeats an earlier one", text, n)
			}
			seen[s] = true
			got, err := raparse.ParseQuery(s)
			if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%q respelled as %q parses to %v (%v)", text, s, got, err)
			}
		}
	}
}

// respellPeriod is the number of distinct spellings respell produces before
// it repeats one: 3^gaps. It must exceed the result cache's capacity.
func respellPeriod(text string) int {
	period, quoted := 1, false
	for i := 0; i < len(text) && period < 1<<20; i++ {
		switch c := text[i]; {
		case c == '\'':
			quoted = !quoted
		case !quoted && (c == ',' || c == '('):
			period *= 3
		}
	}
	return period
}

// benchmarkFile is BENCHMARK.json as the tests read it.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func readBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkFile
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloadNames)
	}
	compare := func(kind string, listed []benchmarkMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(defs))
		}
		for i := 0; i < min(len(listed), len(defs)); i++ {
			got, want := listed[i], defs[i]
			if got.Name != want.name || got.Unit != want.unit || got.Better != want.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s, %s], the benchmark %s [%s, %s]",
					kind, i, got.Name, got.Unit, got.Better, want.name, want.unit, want.better)
			}
			if bounded != (got.Bound != nil) {
				t.Errorf("%s metric %s: bound present = %v", kind, got.Name, got.Bound != nil)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd, true)
	compare("per_layer", bj.PerLayer, perLayer, false)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload end to end at a few hundred operations,
// traced, against a real incdbd: every metric BENCHMARK.json names comes out
// once, finite and with its unit, nothing fails, and the trace file is a
// tree.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts incdbd subprocesses")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "incdbd")
	if err := buildServer(root, bin); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanupAll)
	bj := readBenchmarkJSON(t)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			ops := 200
			if w == "null_worlds" {
				ops = 40 // an oracle call is tens of milliseconds
			}
			cfg := runConfig{
				workload: w, seed: 1, seconds: 1, trace: true, bin: bin,
				workDir: filepath.Join(tmp, "run"), outDir: filepath.Join(tmp, "out"),
				scale: float64(ops) / float64(sizings[w].opsPerSecond),
			}
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted != ops {
				t.Errorf("%d of %d operations failed (want 0 of %d): %v", rep.Failed, rep.Attempted, ops, rep.Failures)
			}
			for traced, listed := range map[bool][]benchmarkMetric{false: bj.EndToEnd, true: bj.PerLayer} {
				data, err := json.Marshal(rep.contract(traced))
				if err != nil {
					t.Fatal(err)
				}
				var line struct {
					Metrics map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal(data, &line); err != nil {
					t.Fatal(err)
				}
				if len(line.Metrics) != len(listed) {
					t.Errorf("trace=%v: %d metrics printed, BENCHMARK.json lists %d", traced, len(line.Metrics), len(listed))
				}
				for _, want := range listed {
					got, ok := line.Metrics[want.Name]
					switch {
					case !ok:
						t.Errorf("metric %s is not printed", want.Name)
					case got.Unit != want.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v %q, want a finite value in %q", want.Name, got.Value, got.Unit, want.Unit)
					case !metricName.MatchString(want.Name):
						t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", want.Name)
					case !traced && got.Value <= 0 && want.Name != "cpu_ms_per_op":
						// (a smoke-sized window can fit inside one 10 ms CPU tick)
						t.Errorf("end-to-end metric %s = %v, want it positive", want.Name, got.Value)
					}
				}
			}
			if rep.Metrics["client.error_rate"].Value != 0 {
				t.Errorf("client.error_rate = %v", rep.Metrics["client.error_rate"].Value)
			}

			data, err := os.ReadFile(filepath.Join(cfg.outDir, w+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf struct {
				Spans []span `json:"spans"`
			}
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			ids := map[int]span{}
			for _, s := range tf.Spans {
				ids[s.ID] = s
			}
			if len(tf.Spans) < 3*rep.Ops["traced"] {
				t.Errorf("%d spans for %d traced operations on three rungs", len(tf.Spans), rep.Ops["traced"])
			}
			for _, s := range tf.Spans {
				if p, ok := ids[s.Parent]; s.Parent != 0 && (!ok || p.OpID != s.OpID) {
					t.Errorf("span %d (%s): parent %d is missing or belongs to another operation", s.ID, s.Name, s.Parent)
				}
				if s.End < s.Start {
					t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
				}
			}
		})
	}
}
