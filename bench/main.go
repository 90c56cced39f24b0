// Command bench is the repository's benchmark: it builds cmd/incdbd, runs it
// as a real subprocess, drives it over loopback with server.Client through
// one of four fixed, seeded workloads, checks every answer, and prints the
// metrics BENCHMARK.json names. See README.md for the catalogue.
//
//	bash bench/run.sh --workload tpch_join --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --check
//
// The last line of standard output is one JSON object {correct, attempted,
// failed, metrics}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. A fuller report goes to bench/out/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (empty: all, one after another)")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs: dirtying, operation order, respelling, append keys")
	seconds := flag.Int("seconds", 10, "length the timed window is sized for (the operation count is fixed per second)")
	trace := flag.Int("trace", 0, "1: also replay a sample on the three traced rungs and print the per-layer metrics")
	check := flag.Bool("check", false, "run every workload twice and fail if an end-to-end metric differs by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanupAll()
		os.Exit(130)
	}()

	err := run(*workload, *seed, *seconds, *trace == 1, *check)
	cleanupAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, trace, check bool) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	cfg := runConfig{
		seed:    seed,
		seconds: seconds,
		trace:   trace,
		bin:     filepath.Join(build, "incdbd"),
		workDir: filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid())),
		outDir:  filepath.Join(root, "bench", "out"),
		scale:   1,
	}
	if err := buildServer(root, cfg.bin); err != nil {
		return err
	}
	defer os.Remove(cfg.workDir)

	names := workloadNames
	if workload != "" {
		names = []string{workload}
	}
	if check {
		return checkRepeatable(cfg, root, names)
	}
	for _, name := range names {
		cfg.workload = name
		rep, err := runWorkload(cfg)
		if err != nil {
			return err
		}
		if err := rep.write(cfg); err != nil {
			return err
		}
		rep.printSummary(os.Stderr)
		line, err := json.Marshal(rep.contract(trace))
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// repoRoot finds the checkout: the nearest directory at or above the working
// directory whose go.mod declares module incdb.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module incdb\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the incdb checkout (no go.mod with module incdb at or above the working directory)")
		}
		dir = parent
	}
}

// buildServer compiles cmd/incdbd from the checkout's source.
func buildServer(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/incdbd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/incdbd: %v\n%s", err, out)
	}
	return nil
}

// runWorkload is one run of one workload: set up setupRuns times, run the
// timed window on the last server, kill it and check what a restart
// recovers, check the answers, and - when tracing - replay the sample on
// the three rungs.
func runWorkload(cfg runConfig) (*report, error) {
	if _, ok := sizings[cfg.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err := checkNoLeakedServer(cfg.bin); err != nil {
		return nil, err
	}
	m := &measured{}
	var s *served
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			s.tearDown()
		}
		var d time.Duration
		var err error
		if s, d, err = setUp(cfg, fmt.Sprintf("%s-%d", cfg.workload, i)); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, d.Seconds())
	}
	defer s.tearDown()
	in := s.in

	var err error
	if m.win, err = timedWindow(cfg, s); err != nil {
		return nil, err
	}

	// Crash, replay the files the way a replica would, restart.
	dataDir := filepath.Join(s.srv.dir, "data")
	s.srv.kill()
	replayed, n, d, err := replayWAL(dataDir)
	if err != nil {
		return nil, fmt.Errorf("replaying the killed server's WAL: %w", err)
	}
	m.replayed, m.replay = n, d
	if s.srv, m.recovery, err = startServer(cfg.bin, s.srv.dir); err != nil {
		return nil, fmt.Errorf("restart on the killed server's directory: %w", err)
	}

	ck := &checker{}
	allOps := append(append([]op(nil), in.warmup...), in.ops...)
	logs := append([]*clientLog{s.warm}, m.win.logs...)
	for _, l := range logs {
		ck.failed += l.failed
		ck.failures = append(ck.failures, l.failures...)
	}
	if in.workload == "write_mix" {
		ck.checkMutable(in, s.base, allOps, logs)
	} else {
		ck.checkReadOnly(in, logs)
	}
	ck.checkRecovered(in, s.srv.base, allOps, logs)
	for _, name := range in.db.Names() {
		if got := replayed.Relation(name); got == nil || got.Len() != in.db.Relation(name).Len() {
			ck.fail("replaying the WAL rebuilt relation %s differently from the acknowledged state", name)
		}
	}
	m.failed = ck.failed

	if cfg.trace {
		if m.tr, err = tracedRun(cfg); err != nil {
			return nil, err
		}
		if err := writeTrace(cfg, m.tr.spans); err != nil {
			return nil, err
		}
	}
	return newReport(cfg, in, m, ck.failures), nil
}

// benchmarkJSON is the part of BENCHMARK.json the check mode reads.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// checkRepeatable runs each workload twice with the same seed and prints,
// per workload and end-to-end metric, both values, how much worse the
// second is than the first, and the bound; it fails if any pair is outside
// its bound or any operation failed.
func checkRepeatable(cfg runConfig, root string, names []string) error {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	cfg.trace = false
	bad := 0
	fmt.Printf("%-12s %-14s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, name := range names {
		cfg.workload = name
		var runs [2]map[string]float64
		for i := range runs {
			rep, err := runWorkload(cfg)
			if err != nil {
				return err
			}
			if rep.Failed > 0 {
				fmt.Printf("%-12s run %d: %d of %d operations failed: %v\n", name, i+1, rep.Failed, rep.Attempted, rep.Failures)
				bad++
			}
			runs[i] = rep.values
		}
		for _, e := range bj.EndToEnd {
			a, b := runs[0][e.Name], runs[1][e.Name]
			worse := (b - a) / a
			if e.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := ""
			if worse > e.Bound {
				verdict = "  OUTSIDE"
				bad++
			}
			fmt.Printf("%-12s %-14s %12.4f %12.4f %+7.1f%% %5.0f%%%s\n", name, e.Name, a, b, worse*100, e.Bound*100, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d check(s) failed", bad)
	}
	return nil
}

// report is the full account of one run, written to
// <outDir>/<workload>.report.json.
type report struct {
	Workload    string               `json:"workload"`
	Seed        int64                `json:"seed"`
	Seconds     int                  `json:"seconds"`
	Traced      bool                 `json:"traced"`
	Commit      string               `json:"commit"`
	GoVersion   string               `json:"go_version"`
	NumCPU      int                  `json:"nproc"`
	GOMAXPROCS  int                  `json:"gomaxprocs"`
	Clients     int                  `json:"clients"`
	ServerEnv   string               `json:"server_env"`
	ServerFlags []string             `json:"server_flags"`
	Ops         map[string]int       `json:"ops"`
	Samples     map[string]int       `json:"samples"`
	WindowS     float64              `json:"window_s"`
	SetupsS     []float64            `json:"setups_s"`
	Slices      map[string][]float64 `json:"slices"`
	Attempted   int                  `json:"attempted"`
	Failed      int                  `json:"failed"`
	Failures    []string             `json:"failures,omitempty"`
	Worlds      map[string]int64     `json:"worlds_per_query,omitempty"`
	ReadShare   map[string]float64   `json:"layer_share_of_read_round_trip,omitempty"`
	WriteShare  map[string]float64   `json:"layer_share_of_append_round_trip,omitempty"`
	Metrics     map[string]metric    `json:"metrics"`
	Claim       any                  `json:"claim"`

	values map[string]float64
}

func newReport(cfg runConfig, in *inputs, m *measured, failures []string) *report {
	reads, writes := 0, 0
	for _, o := range in.ops {
		if o.write {
			writes++
		} else {
			reads++
		}
	}
	r := &report{
		Workload:    cfg.workload,
		Seed:        cfg.seed,
		Seconds:     cfg.seconds,
		Traced:      cfg.trace,
		Commit:      commit(),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Clients:     clients,
		ServerEnv:   fmt.Sprintf("GOMAXPROCS=%d", serverProcs),
		ServerFlags: serverFlags("127.0.0.1:<port>", "<run dir>/data"),
		Ops:         map[string]int{"warmup": len(in.warmup), "timed": len(in.ops), "traced": len(in.traced)},
		Samples:     map[string]int{"reads": reads, "writes": writes, "slices": slices, "setups": len(m.setups)},
		WindowS:     m.win.elapsed().Seconds(),
		SetupsS:     m.setups,
		Slices:      m.win.sliceValues(),
		Attempted:   m.attempted(),
		Failed:      m.failed,
		Failures:    failures,
		Metrics:     map[string]metric{},
		values:      m.values(),
	}
	if len(r.Failures) > 10 {
		r.Failures = r.Failures[:10]
	}
	// The exact world count of each oracle request, which must repeat from
	// run to run.
	for _, l := range m.win.logs {
		for key, a := range l.first {
			if key.proc == "cert" || key.proc == "inter" {
				if r.Worlds == nil {
					r.Worlds = map[string]int64{}
				}
				r.Worlds[fmt.Sprintf("q%d.%s", key.qid, key.proc)] = a.worlds
			}
		}
	}
	if m.tr != nil {
		r.ReadShare, r.WriteShare = m.layerShares(false), m.layerShares(true)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := r.values[d.name]; ok {
				r.Metrics[d.name] = metric{v, d.unit}
			}
		}
	}
	return r
}

// contract is the one-line result the benchmark driver reads.
func (r *report) contract(trace bool) any {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		metrics[d.name] = r.Metrics[d.name]
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics}
}

func (r *report) write(cfg runConfig) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, r.Workload+".report.json"), append(data, '\n'), 0o644)
}

func (r *report) printSummary(w *os.File) {
	fmt.Fprintf(w, "%s seed=%d: %d ops in %.2fs, %d failed\n", r.Workload, r.Seed, r.Attempted, r.WindowS, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	for _, kind := range []struct {
		name   string
		shares map[string]float64
	}{{"read", r.ReadShare}, {"append", r.WriteShare}} {
		if kind.shares == nil {
			continue
		}
		layers := make([]string, 0, len(kind.shares))
		for layer := range kind.shares {
			layers = append(layers, layer)
		}
		sort.Slice(layers, func(i, j int) bool { return kind.shares[layers[i]] > kind.shares[layers[j]] })
		fmt.Fprintf(w, "  share of the traced %s round trip:", kind.name)
		for _, layer := range layers {
			fmt.Fprintf(w, " %s %.1f%%", layer, kind.shares[layer]*100)
		}
		fmt.Fprintln(w)
	}
}

// commit is the checkout's commit, when it is a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
