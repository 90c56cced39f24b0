// Command benchjson turns two `go test -bench` output files (a base run and
// a working-tree run) into a JSON comparison: per benchmark, the median
// ns/op, B/op and allocs/op of each side, the speedup ratios and the median
// of the per-round ratios, and it gates the run on the regressions of chosen
// benchmarks. It is invoked by scripts/bench_compare.sh after the
// measurement rounds.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type stats struct {
	Ns     float64 `json:"ns_per_op"`
	Bytes  float64 `json:"bytes_per_op"`
	Allocs float64 `json:"allocs_per_op"`
}

type cmp struct {
	Before    stats   `json:"before"`
	After     stats   `json:"after"`
	SpeedupNs float64 `json:"speedup_ns"`
	// PairedNs is the median over rounds k of after_k/before_k ns/op.
	PairedNs        float64 `json:"paired_ratio_ns"`
	BytesReduction  float64 `json:"bytes_reduction"`
	AllocsReduction float64 `json:"allocs_reduction"`
}

type report struct {
	Method       string         `json:"method"`
	Machine      string         `json:"machine"`
	BeforeCommit string         `json:"before_commit"`
	Benchmarks   map[string]cmp `json:"benchmarks"`
}

// benchLine matches one benchmark result line; -benchmem adds B/op and
// allocs/op columns.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

func parse(path string) (map[string][]stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]stats{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		s := stats{Ns: atof(m[2]), Bytes: atof(m[3]), Allocs: atof(m[4])}
		out[m[1]] = append(out[m[1]], s)
	}
	return out, sc.Err()
}

func atof(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func medians(runs []stats) stats {
	var ns, bs, as []float64
	for _, r := range runs {
		ns = append(ns, r.Ns)
		bs = append(bs, r.Bytes)
		as = append(as, r.Allocs)
	}
	return stats{Ns: median(ns), Bytes: median(bs), Allocs: median(as)}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return round2(a / b)
}

func round2(x float64) float64 { return float64(int(x*100+0.5)) / 100 }

func machine() string {
	model := "unknown cpu"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					model = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return fmt.Sprintf("%s, %d vCPU, %s/%s, %s",
		model, runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version())
}

func main() {
	oldPath := flag.String("old", "", "bench output of the base commit")
	newPath := flag.String("new", "", "bench output of the working tree")
	out := flag.String("out", "", "output JSON path")
	method := flag.String("method", "", "measurement method description")
	before := flag.String("before", "", "base commit description")
	gate := flag.String("gate", "", "regexp of benchmarks whose ns/op regression fails the run")
	failOver := flag.Float64("fail-over", 25, "gate threshold: fail when the median per-round ns/op ratio new/old exceeds 1 by more than this percent")
	flag.Parse()
	if *oldPath == "" || *newPath == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	oldRuns, err := parse(*oldPath)
	if err != nil {
		die(err)
	}
	newRuns, err := parse(*newPath)
	if err != nil {
		die(err)
	}
	rep := report{Method: *method, Machine: machine(), BeforeCommit: *before}
	if rep.Benchmarks, err = compare(oldRuns, newRuns); err != nil {
		die(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		die(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		die(err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))

	// Regression gate: after the artifact is written (so a failing run still
	// uploads its numbers), fail loudly when any gated benchmark regressed
	// past the threshold. This is the offline counterpart of a benchstat
	// check — the same runs, no external tooling.
	if *gate != "" {
		re, err := regexp.Compile(*gate)
		if err != nil {
			die("bad -gate regexp:", err)
		}
		if !gateOK(rep.Benchmarks, re, *failOver) {
			os.Exit(1)
		}
	}
}

func die(v ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"benchjson:"}, v...)...)
	os.Exit(1)
}

// compare pairs every benchmark both sides ran. Each round of
// bench_compare.sh runs both sides once, back to back, so the k-th sample of
// a side comes from the same round as the k-th of the other: the median of
// the per-round ratios cancels drift in the machine's speed over the run,
// which per-side medians do not. Sides with unequal sample counts cannot be
// paired and are an error.
func compare(oldRuns, newRuns map[string][]stats) (map[string]cmp, error) {
	out := map[string]cmp{}
	for name, after := range newRuns {
		before, ok := oldRuns[name]
		if !ok {
			continue // benchmark new in the working tree: nothing to compare
		}
		if len(before) != len(after) {
			return nil, fmt.Errorf("%s: %d base samples but %d working-tree samples, rounds cannot be paired", name, len(before), len(after))
		}
		var paired []float64
		for k := range after {
			if before[k].Ns > 0 {
				paired = append(paired, after[k].Ns/before[k].Ns)
			}
		}
		b, a := medians(before), medians(after)
		out[name] = cmp{
			Before: b, After: a,
			SpeedupNs:       ratio(b.Ns, a.Ns),
			PairedNs:        median(paired),
			BytesReduction:  ratio(b.Bytes, a.Bytes),
			AllocsReduction: ratio(b.Allocs, a.Allocs),
		}
	}
	return out, nil
}

// gateOK reports whether no benchmark matching re has a paired ns/op ratio
// more than failOver percent above 1, printing one line per gated benchmark.
func gateOK(benchmarks map[string]cmp, re *regexp.Regexp, failOver float64) bool {
	var names []string
	for name, c := range benchmarks {
		if re.MatchString(name) && c.PairedNs != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		c := benchmarks[name]
		pct := (c.PairedNs - 1) * 100
		if pct > failOver {
			fmt.Fprintf(os.Stderr, "benchjson: GATE FAILED: %s regressed %.1f%% (median of per-round ratios; medians %.0f → %.0f ns/op, limit +%.0f%%)\n",
				name, pct, c.Before.Ns, c.After.Ns, failOver)
			ok = false
		} else {
			fmt.Printf("gate ok: %s %+.1f%% (limit +%.0f%%)\n", name, pct, failOver)
		}
	}
	return ok
}
