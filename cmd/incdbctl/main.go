// Command incdbctl evaluates a relational algebra query over an incomplete
// database stored in the raparse text format, under any of the evaluation
// procedures the library implements:
//
//	incdbctl -db data.idb -mode sql    "proj(0, sel(not(in(0, proj(1, Payments))), Orders))"
//	incdbctl -db data.idb -mode cert   "minus(proj(0, Customers), proj(0, Payments))"
//	incdbctl -db data.idb -mode plus   "..."   (the Q⁺ rewriting of Figure 2(b))
//	incdbctl -db data.idb -mode report "..."   (all procedures side by side)
//
// Modes: sql, naive, cert (cert⊥), inter (cert∩), plus, poss, qt, qf,
// ctable-eager|semi|lazy|aware, report.
//
// The explain subcommand prints the optimized logical expression and the
// compiled physical plan (each node marked with its frozen part, its
// per-world Δ, or as a barrier) instead of evaluating; -format json emits the same structured
// rendering the incdbd server's /v1/explain endpoint returns:
//
//	incdbctl explain -db data.idb [-sql] [-bag] [-analyze] [-format text|json] "minus(proj(0, Customers), proj(0, Payments))"
//
// With -analyze the plan is also executed once with per-node tracing, so
// every node shows its actual row count, batch count and wall time next to
// the optimizer's estimates (EXPLAIN ANALYZE). The top subcommand scrapes
// a server's /v1/metrics and prints an operator summary (query rates and
// latency quantiles by procedure, cache hit rates, replication lag):
//
//	incdbctl top -addr http://localhost:8080
//
// The trace subcommand reads a server's distributed traces (GET
// /v1/traces): without an ID it lists recent root spans, with one it
// renders that trace's span tree with durations and attributes — run it
// against the primary and each replica to see both sides of a
// replicated write:
//
//	incdbctl trace -addr http://localhost:8080
//	incdbctl trace -addr http://localhost:8080 4bf92f3577b34da6a3ce929d0e0e4736
//
// The client subcommand speaks the incdbd HTTP/JSON protocol — one-shot or
// as a REPL over a named server-side session (see runClient). -addr takes
// a comma-separated endpoint list; with more than one the client is
// failover-aware (retries retryable errors, re-discovers the writable
// primary by role/epoch):
//
//	incdbctl client -addr http://localhost:8080 -session demo load data.idb
//	incdbctl client -addr http://localhost:8080 -session demo cert "minus(proj(0, Customers), proj(0, Payments))"
//	incdbctl client -addr http://localhost:8080,http://localhost:8081 -session demo   (REPL, failover-aware)
//
// The promote subcommand flips a caught-up follower into the writable
// primary at epoch+1 (see the README failover runbook):
//
//	incdbctl promote -addr http://localhost:8081 [-force]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/core"
	"incdb/internal/plan"
	"incdb/internal/raparse"
	"incdb/internal/relation"
)

// subcommands maps the first argument to its runner; anything else is the
// local evaluation form.
var subcommands = map[string]func(args []string) error{
	"explain": runExplain,
	"client":  runClient,
	"promote": runPromote,
	"top":     runTop,
	"trace":   runTrace,
}

func main() {
	if len(os.Args) > 1 {
		if sub, ok := subcommands[os.Args[1]]; ok {
			if err := sub(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "incdbctl %s: %v\n", os.Args[1], err)
				os.Exit(1)
			}
			return
		}
	}
	dbPath := flag.String("db", "", "database file (raparse format)")
	mode := flag.String("mode", "report", "evaluation mode")
	maxWorlds := flag.Int("maxworlds", 0, "certainty oracle world bound (0 = default)")
	workers := flag.Int("workers", 0, "worker goroutines for the oracles (0 = one per CPU, 1 = serial)")
	flag.Parse()
	if *dbPath == "" || flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*dbPath, *mode, flag.Arg(0), *maxWorlds, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "incdbctl:", err)
		os.Exit(1)
	}
}

// parseInputs reads the database file and parses the query against it.
func parseInputs(dbPath, querySrc string) (*relation.Database, algebra.Expr, error) {
	f, err := os.Open(dbPath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	db, err := raparse.ParseDatabase(f)
	if err != nil {
		return nil, nil, err
	}
	q, err := raparse.ParseQuery(querySrc)
	if err != nil {
		return nil, nil, err
	}
	return db, q, algebra.Validate(q, db)
}

// runExplain parses `explain` flags and prints the plan for the query —
// as text, or with -format json as the structured plan.Describe rendering
// the server's /v1/explain endpoint returns (one rendering path for both).
func runExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file (raparse format)")
	sql := fs.Bool("sql", false, "plan for SQL three-valued evaluation instead of naive")
	bag := fs.Bool("bag", false, "plan under bag semantics")
	analyze := fs.Bool("analyze", false, "execute the plan once and show actual rows and wall time per node")
	format := fs.String("format", "text", "output format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" || fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	db, q, err := parseInputs(*dbPath, fs.Arg(0))
	if err != nil {
		return err
	}
	mode := algebra.ModeNaive
	if *sql {
		mode = algebra.ModeSQL
	}
	info := plan.Describe(q, db, mode, *bag, nil, *analyze)
	switch *format {
	case "text":
		fmt.Print(info.Text())
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		return enc.Encode(info)
	default:
		return fmt.Errorf("unknown format %q (want text or json)", *format)
	}
	return nil
}

func run(dbPath, mode, querySrc string, maxWorlds, workers int) error {
	db, q, err := parseInputs(dbPath, querySrc)
	if err != nil {
		return err
	}
	opts := certain.Options{MaxWorlds: maxWorlds, Workers: workers}

	show := func(name string, r *relation.Relation, err error) {
		switch {
		case err != nil:
			fmt.Printf("%-8s error: %v\n", name, err)
		case r == nil:
			fmt.Printf("%-8s (not applicable: outside the Figure 2 fragment)\n", name)
		default:
			fmt.Printf("%-8s %s\n", name, r.Rename(name))
		}
	}

	if mode == "report" {
		rep := core.Analyze(db, q, opts)
		show("sql", rep.SQLAnswers, nil)
		show("naive", rep.NaiveAnswers, nil)
		show("Q+", rep.Plus, nil)
		show("Q?", rep.Poss, nil)
		show("cert⊥", rep.Certain, rep.CertainErr)
		if rep.Certain != nil {
			fmt.Printf("SQL false positives: %v\n", rep.FalsePositives)
			fmt.Printf("SQL false negatives: %v\n", rep.FalseNegatives)
		}
		return nil
	}
	// Every other mode is a row of the procedure table.
	p := core.Lookup(mode)
	if p == nil {
		return fmt.Errorf("unknown mode %q", mode)
	}
	rels, err := core.Run(p, db, q, false, opts)
	if err != nil {
		return err
	}
	for i, r := range rels {
		show(p.Labels[i], r.Relation(), nil)
	}
	return nil
}
