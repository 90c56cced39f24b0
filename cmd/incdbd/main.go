// Command incdbd serves incomplete databases over HTTP/JSON: named,
// session-scoped databases with a version-guarded prepared-plan cache per
// session, so repeated queries against a stable database reuse compiled and
// prepared plans across requests (see internal/server).
//
//	incdbd -addr :8080
//	incdbd -addr :8080 -load examples/data/orders.idb -session default
//	incdbd -addr :8080 -data-dir /var/lib/incdbd
//	incdbd -addr :8081 -data-dir /var/lib/incdbd-replica -follow http://primary:8080
//
// With -data-dir the server is durable (see internal/store): every load is
// written ahead to a per-session log and fsync'd before it is acknowledged
// (concurrent loads group-commit, sharing fsyncs), snapshots compact the
// log, and a restart — graceful or SIGKILL — recovers every session to the
// last acknowledged load, version vectors, null identities and warm
// prepared plans included.
//
// With -follow the server is a read replica: it bootstraps every session
// from the primary's snapshot endpoint, tails the primary's WAL stream,
// and serves queries (rejecting loads with 403 read_only_replica). Query
// responses carry the session's version vector as a consistency token;
// -stale-wait bounds how long a replica holds a read whose token it does
// not yet cover before answering 412 stale_replica.
//
// Endpoints are session-scoped — POST /v1/sessions/{name}/load|query|explain,
// GET /v1/sessions/{name}/status|snapshot|wal — plus the server-wide
// routes (see internal/server). The incdbctl client subcommand (and its
// REPL) speaks the same protocol:
//
//	incdbctl client -addr http://localhost:8080 -session default
//
// The server shuts down gracefully on SIGINT/SIGTERM: new loads are
// refused (503 shutting_down), the listener closes, in-flight requests
// get the grace period to finish, and every durable session takes a
// final fsync before exit. -write-timeout bounds slow response writes
// (the replication WAL stream, which is long-lived by design, exempts
// itself).
//
// Failover: a follower is promoted to writable primary at epoch+1 with
// `incdbctl promote` (POST /v1/promote); a revived stale primary fences
// itself read-only on observing the higher epoch. GET /v1/healthz and
// GET /v1/readyz serve liveness/readiness probes.
//
// Observability: GET /v1/metrics serves the Prometheus text format (query
// latency and worlds-enumerated histograms, cache hit counters, WAL fsync
// and group-commit histograms, replication lag — see the README's
// Observability section). -slow-query logs evaluated queries over the
// threshold with their plan summary; -pprof-addr serves net/http/pprof on
// a separate listener; `incdbctl top` renders the metrics as a one-shot
// summary.
//
// Tracing: every request gets a distributed-trace span tree — client →
// admission → evaluation → WAL fsync, linked across the replication
// stream to each follower's apply span. An incoming W3C traceparent
// header joins the caller's trace; -trace-sample sets the head-sampling
// rate for fresh traces (1.0 by default — every trace is kept in the
// bounded in-memory ring; 0 disables tracing entirely). Slow and failed
// requests are always kept. GET /v1/traces lists recent root spans,
// GET /v1/traces/{id} returns one trace's spans, and `incdbctl trace`
// renders the tree.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served on -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"incdb/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "oracle worker goroutines (0 = one per CPU, 1 = serial)")
	maxInFlight := flag.Int("max-inflight", 0, "concurrent evaluations (0 = 2x workers)")
	maxWorlds := flag.Int("maxworlds", 0, "default certainty oracle world bound (0 = library default)")
	dataDir := flag.String("data-dir", "", "data directory for durable sessions (WAL + snapshots); empty = memory-only")
	snapshotBytes := flag.Int64("snapshot-bytes", 0, "WAL size triggering a compacting snapshot (0 = default)")
	follow := flag.String("follow", "", "primary URL to follow as a read replica (e.g. http://primary:8080)")
	staleWait := flag.Duration("stale-wait", 0, "how long a replica holds a read for its consistency token (0 = 2s)")
	writeTimeout := flag.Duration("write-timeout", 0, "HTTP response write deadline (0 = none; WAL streaming is exempt)")
	slowQuery := flag.Duration("slow-query", 0, "log evaluated queries slower than this (0 = off)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
	traceSample := flag.Float64("trace-sample", 1.0, "distributed-trace head-sampling rate in [0,1] (0 = tracing off; slow/failed requests always kept)")
	grace := flag.Duration("grace", 5*time.Second, "graceful shutdown window")
	load := flag.String("load", "", "database file (raparse format) to preload")
	session := flag.String("session", "default", "session name for -load")
	flag.Parse()

	srv := server.New(server.Options{
		Workers:       *workers,
		MaxInFlight:   *maxInFlight,
		MaxWorlds:     *maxWorlds,
		SnapshotBytes: *snapshotBytes,
		StaleWait:     *staleWait,
		WriteTimeout:  *writeTimeout,
		SlowQuery:     *slowQuery,
		ShutdownGrace: *grace,
		TraceSample:   *traceSample,
	})
	if *pprofAddr != "" {
		// The profiling endpoints live on their own listener so they are
		// never exposed on the service address.
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("incdbd: pprof: %v", err)
			}
		}()
	}
	if *dataDir != "" {
		if err := srv.EnableDurability(*dataDir); err != nil {
			log.Fatalf("incdbd: %v", err)
		}
		log.Printf("durable sessions in %s", *dataDir)
	}
	if *load != "" {
		if *follow != "" {
			log.Fatalf("incdbd: -load conflicts with -follow (a replica only accepts data from its primary)")
		}
		data, err := os.ReadFile(*load)
		if err != nil {
			log.Fatalf("incdbd: %v", err)
		}
		rels, err := srv.Preload(*session, string(data))
		if err != nil {
			log.Fatalf("incdbd: preload %s: %v", *load, err)
		}
		log.Printf("loaded %s into session %q (%d relations)", *load, *session, rels)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *follow != "" {
		srv.StartFollow(ctx, *follow)
		log.Printf("following primary %s (read-only replica)", *follow)
	}
	log.Printf("incdbd listening on %s", *addr)
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		srv.Close()
		fmt.Fprintln(os.Stderr, "incdbd:", err)
		os.Exit(1)
	}
	srv.Close()
	log.Printf("incdbd: shut down cleanly")
}
