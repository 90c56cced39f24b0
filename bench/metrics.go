package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"incdb/internal/relation"
	"incdb/internal/store"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json lists the
// same names, units and directions (TestCatalogueMatchesBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of the untraced run, on every workload. The
// issue's write_p50_ms, write_p90_ms, wal_bytes_per_user_byte and
// error_rate are per-layer here (client.*, store.*): the benchmark contract
// wants every end-to-end metric non-zero on every workload, and those are
// zero off write_mix, or zero by design.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"read_p50_ms", "ms", "lower"},
	{"read_p90_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
}

// perLayer are the metrics of the traced run, grouped by the repo module
// they attribute time or work to. A time is the mean, over the traced
// operations that reach the layer, of the operation's time in it; a metric
// whose layer a workload never reaches reads 0 there.
var perLayer = []metricDef{
	{"client.roundtrip_us", "us", "lower"},
	{"client.codec_us", "us", "lower"},
	{"client.read_p99_ms", "ms", "lower"},
	{"client.write_p50_ms", "ms", "lower"},
	{"client.write_p90_ms", "ms", "lower"},
	{"client.write_p99_ms", "ms", "lower"},
	{"client.error_rate", "ratio", "lower"},
	{"http.self_us", "us", "lower"},
	{"api.decode_request_us", "us", "lower"},
	{"api.encode_response_us", "us", "lower"},
	{"api.response_bytes", "B", "lower"},
	{"server.handler_us", "us", "lower"},
	{"server.self_us", "us", "lower"},
	{"server.self_ratio", "ratio", "lower"},
	{"server.rescache_hit_ratio", "ratio", "higher"},
	{"raparse.parse_query_us", "us", "lower"},
	{"raparse.parse_rows_us", "us", "lower"},
	{"algebra.validate_us", "us", "lower"},
	{"relation.versions_us", "us", "lower"},
	{"plan.prep_get_us", "us", "lower"},
	{"plan.compile_prepare_us", "us", "lower"},
	{"plan.exec_us", "us", "lower"},
	{"plan.prep_hit_ratio", "ratio", "higher"},
	{"translate.fig2b_us", "us", "lower"},
	{"translate.plus_over_sql_ratio", "ratio", "lower"},
	{"certain.with_nulls_ms", "ms", "lower"},
	{"certain.intersection_ms", "ms", "lower"},
	{"certain.worlds_per_query", "count", "lower"},
	{"certain.us_per_world", "us", "lower"},
	{"certain.frozen_reuse_per_world", "count", "higher"},
	{"engine.workers2_speedup", "ratio", "higher"},
	{"store.buffer_us", "us", "lower"},
	{"store.sync_us", "us", "lower"},
	{"store.records_per_fsync", "count", "higher"},
	{"store.fsyncs_per_kop", "1/kop", "lower"},
	{"store.snapshot_ms", "ms", "lower"},
	{"store.recovery_s", "s", "lower"},
	{"store.apply_record_us", "us", "lower"},
	{"store.wal_bytes_per_user_byte", "ratio", "lower"},
	{"incdbd.rss_peak_mb", "MB", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sumDur(ds []time.Duration) (s time.Duration) {
	for _, d := range ds {
		s += d
	}
	return s
}

// measured is everything one run observed; the metric values derive from it.
type measured struct {
	setups   []float64 // seconds, one per set-up
	win      *window
	recovery time.Duration // restart to ready on the killed server's directory
	replayed int           // WAL records replayed
	replay   time.Duration // ReadFrame + ApplyRecord over them
	tr       *traceResult  // nil on an untraced run
	failed   int           // operations failed, refused, wrong or lost
}

func (m *measured) attempted() int { return len(m.win.ops) }

// values computes every metric the run can give: the end-to-end ones
// always, the per-layer ones when traced.
func (m *measured) values() map[string]float64 {
	w := m.win
	ops := float64(m.attempted())
	v := map[string]float64{"setup_s": median(m.setups), "cpu_ms_per_op": w.cpuSeconds() * 1000 / ops}
	for name, perSlice := range w.sliceValues() {
		v[name] = median(perSlice)
	}
	if m.tr == nil {
		return v
	}
	reads, writes := w.latencies(false, 0, len(w.ops)), w.latencies(true, 0, len(w.ops))

	var oracleCalls, worlds, frozen int64
	for _, l := range w.logs {
		oracleCalls += l.oracleCalls
		worlds += l.worlds
		frozen += l.frozenReuse
	}
	v["client.read_p99_ms"] = quantileMs(reads, 0.99)
	v["client.write_p50_ms"] = quantileMs(writes, 0.50)
	v["client.write_p90_ms"] = quantileMs(writes, 0.90)
	v["client.write_p99_ms"] = quantileMs(writes, 0.99)
	v["client.error_rate"] = float64(m.failed) / ops
	v["server.rescache_hit_ratio"] = ratio(w.delta("incdb_result_cache_hits_total"),
		w.delta("incdb_result_cache_hits_total")+w.delta("incdb_result_cache_misses_total"))
	prepHits := w.delta("incdb_prep_cache_hits_total")
	v["plan.prep_hit_ratio"] = ratio(prepHits,
		prepHits+w.delta("incdb_prep_cache_misses_total")+w.delta("incdb_prep_cache_invalidations_total"))
	v["certain.worlds_per_query"] = ratio(float64(worlds), float64(oracleCalls))
	v["certain.frozen_reuse_per_world"] = ratio(float64(frozen), float64(worlds))
	v["store.records_per_fsync"] = ratio(w.delta("incdb_wal_records_per_fsync_sum"), w.delta("incdb_wal_records_per_fsync_count"))
	v["store.fsyncs_per_kop"] = w.delta("incdb_wal_syncs_total") / ops * 1000
	v["store.snapshot_ms"] = ratio(w.delta("incdb_snapshot_seconds_sum"), w.delta("incdb_snapshot_seconds_count")) * 1000
	v["store.wal_bytes_per_user_byte"] = ratio(w.delta("incdb_wal_flush_bytes_sum")+float64(w.snapshotBytes), float64(w.userBytes))
	v["store.recovery_s"] = m.recovery.Seconds()
	v["store.apply_record_us"] = ratio(us(m.replay), float64(m.replayed))
	v["incdbd.rss_peak_mb"] = w.rssMB

	t := m.tr
	n := float64(len(t.sample))
	r := sumRungs(t.spans, func(int) bool { return true })
	a, b, c, codec := us(r.a)/n, us(r.b)/n, us(r.c)/n, us(r.codec)/n
	v["client.roundtrip_us"] = a
	v["client.codec_us"] = codec
	v["http.self_us"] = a - b - codec
	v["server.handler_us"] = b
	v["server.self_us"] = b - c
	v["server.self_ratio"] = ratio(b-c, b)
	v["api.response_bytes"] = float64(t.responseBytes) / n
	v["trace.overhead_ratio"] = ratio(n/r.a.Seconds(), v["ops_per_s"])
	v["plan.compile_prepare_us"] = ratio(us(sumDur(t.coldPrepare)), float64(len(t.coldPrepare)))
	v["engine.workers2_speedup"] = ratio(float64(t.workers1), float64(t.workers2))

	total, reached := r.byName, r.reached
	perOp := func(names ...string) float64 {
		var sum time.Duration
		for _, name := range names {
			sum += total[name]
		}
		return ratio(us(sum), float64(reached[names[0]]))
	}
	v["api.decode_request_us"] = perOp("api.decode_request")
	v["api.encode_response_us"] = perOp("api.encode_response", "api.render_rows")
	v["raparse.parse_query_us"] = perOp("raparse.parse_query")
	v["raparse.parse_rows_us"] = perOp("raparse.parse_rows")
	v["algebra.validate_us"] = perOp("algebra.validate")
	v["relation.versions_us"] = perOp("relation.versions")
	v["plan.prep_get_us"] = perOp("plan.prep_get")
	v["plan.exec_us"] = perOp("plan.exec")
	v["translate.fig2b_us"] = perOp("translate.fig2b")
	v["certain.with_nulls_ms"] = perOp("certain.with_nulls") / 1000
	v["certain.intersection_ms"] = perOp("certain.intersection") / 1000
	v["certain.us_per_world"] = ratio(us(total["certain.with_nulls"]+total["certain.intersection"]),
		v["certain.worlds_per_query"]*float64(reached["certain.with_nulls"]+reached["certain.intersection"]))
	v["store.buffer_us"] = perOp("store.buffer")
	v["store.sync_us"] = perOp("store.sync")
	v["translate.plus_over_sql_ratio"] = m.plusOverSQL()
	return v
}

// plusOverSQL is the paper's cited 1-4 % claim, measured: plan execution
// time of the Q+ rewriting over that of the SQL evaluation, summed over the
// queries the traced sample ran under both (per-query means, so the two
// sides weigh every query once).
func (m *measured) plusOverSQL() float64 {
	type acc struct {
		d time.Duration
		n int
	}
	execs := map[comboKey]*acc{}
	for _, s := range m.tr.spans {
		if s.Name != "plan.exec" {
			continue
		}
		o := m.tr.sample[s.OpID]
		key := comboKey{o.qid, o.proc}
		if execs[key] == nil {
			execs[key] = &acc{}
		}
		execs[key].d += time.Duration(s.End - s.Start)
		execs[key].n++
	}
	var plus, sql float64
	for key, p := range execs {
		if s := execs[comboKey{key.qid, "sql"}]; key.proc == "plus" && s != nil {
			plus += us(p.d) / float64(p.n)
			sql += us(s.d) / float64(s.n)
		}
	}
	return ratio(plus, sql)
}

// layerShares is the share of the traced round trip each layer accounts
// for, over the reads (write false) or the appends (write true) of the
// sample: the table the README's dominance statements are read from. nil
// when the sample has no such operation.
func (m *measured) layerShares(write bool) map[string]float64 {
	t := m.tr
	r := sumRungs(t.spans, func(opID int) bool { return t.sample[opID].write == write })
	if r.a == 0 {
		return nil
	}
	byLayer := map[string]time.Duration{"client": r.codec, "http": r.a - r.b - r.codec, "server": r.b - r.c}
	for name, d := range r.byName {
		layer, _, _ := strings.Cut(name, ".")
		byLayer[layer] += d
	}
	out := map[string]float64{}
	for layer, d := range byLayer {
		out[layer] = float64(d) / float64(r.a)
	}
	return out
}

// replayWAL measures the replica-apply path on the files a killed server
// left: the database is rebuilt from the snapshot, then every WAL record
// past it goes through store.ReadFrame and store.ApplyRecord, timed. The
// on-disk layout is the store's: sessions/<name>/{snapshot.idb,wal.log},
// the log opening with an 8-byte magic.
func replayWAL(dataDir string) (db *relation.Database, records int, d time.Duration, err error) {
	dir := filepath.Join(dataDir, "sessions", sessionName)
	db = relation.NewDatabase()
	var snapSeq uint64
	if f, err := os.Open(filepath.Join(dir, "snapshot.idb")); err == nil {
		snap, derr := store.DecodeSnapshot(f)
		f.Close()
		if derr != nil {
			return nil, 0, 0, derr
		}
		if db, derr = snap.Database(); derr != nil {
			return nil, 0, 0, derr
		}
		snapSeq = snap.Seq
	}
	f, err := os.Open(filepath.Join(dir, "wal.log"))
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	magic := make([]byte, 8)
	if _, err := io.ReadFull(f, magic); err != nil || !strings.HasPrefix(string(magic), "incdbwl") {
		return nil, 0, 0, fmt.Errorf("wal.log does not open with the store's magic: %q %v", magic, err)
	}
	for {
		t0 := time.Now()
		rec, err := store.ReadFrame(f)
		if err == io.EOF {
			return db, records, d, nil
		}
		if err != nil {
			return nil, 0, 0, err
		}
		if rec.Seq <= snapSeq {
			continue
		}
		if err := store.ApplyRecord(db, rec); err != nil {
			return nil, 0, 0, err
		}
		d += time.Since(t0)
		records++
	}
}
