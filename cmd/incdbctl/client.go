package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"incdb/internal/api"
	"incdb/internal/core"
	"incdb/internal/server"
)

const clientHelp = `commands:
  load <file>              replace the session database from a file
  append <file>            append a file's rows into the session database
  <proc> <query>           evaluate (procs: sql naive cert inter plus poss ctable-*)
  <query>                  evaluate under sql
  explain [sql] [bag] [analyze] <query>   show the plan (analyze: run it, show actual rows and time per node)
  status                   server sessions, versions, caches, durability, replication
  vector                   print the consistency token (for -read-after elsewhere)
  snapshot [file]          export a consistent session snapshot (stdout or file)
  restore <file>           bootstrap the session from a snapshot export
  promote [force]          promote this follower to writable primary at epoch+1
  help                     this text
  quit                     leave the REPL`

// runClient runs the client subcommand: with positional arguments it
// executes them as one command line; without, it drops into a REPL. Both
// speak the incdbd HTTP/JSON protocol through server.Client, so the CLI
// and the server share one set of wire types (incdb/internal/api).
func runClient(args []string) error {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "incdbd base URL(s), comma-separated; more than one makes the client failover-aware")
	session := fs.String("session", "default", "server-side session name")
	bag := fs.Bool("bag", false, "bag semantics for sql/naive queries")
	maxWorlds := fs.Int("maxworlds", 0, "certainty oracle world bound (0 = server default)")
	readAfter := fs.String("read-after", "", `consistency token to read at least as new as (JSON, e.g. '{"A":2}'; print one with the vector command)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c := server.NewFailoverClient(strings.Split(*addr, ","), *session)
	if *readAfter != "" {
		var vec map[string]uint64
		if err := json.Unmarshal([]byte(*readAfter), &vec); err != nil {
			return fmt.Errorf("bad -read-after (want JSON like '{\"A\":2}'): %w", err)
		}
		c.SetVector(vec)
	}
	opts := queryOpts{bag: *bag, maxWorlds: *maxWorlds}
	if fs.NArg() > 0 {
		return clientLine(c, strings.Join(fs.Args(), " "), opts)
	}

	fmt.Printf("incdbctl REPL — server %s, session %q (help for commands)\n", *addr, *session)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("incdb> ")
		if !sc.Scan() {
			fmt.Println()
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return nil
		}
		if err := clientLine(c, line, opts); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
}

// runPromote runs the promote subcommand: flip the follower at -addr into
// the writable primary at epoch+1. The server refuses unless its
// replication tail is drained; -force skips the check for disaster
// recovery (the old primary's unshipped tail is accepted as lost).
func runPromote(args []string) error {
	fs := flag.NewFlagSet("promote", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "incdbd base URL of the follower to promote")
	force := fs.Bool("force", false, "promote even if the replication tail is not drained")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		os.Exit(2)
	}
	pr, err := server.NewClient(*addr, "").Promote(*force)
	if err != nil {
		return err
	}
	printPromotion(pr)
	return nil
}

type queryOpts struct {
	bag       bool
	maxWorlds int
}

// clientLine executes one command line against the server.
func clientLine(c *server.Client, line string, opts queryOpts) error {
	head, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch head {
	case "help":
		fmt.Println(clientHelp)
		return nil
	case "status":
		st, err := c.Status()
		if err != nil {
			return err
		}
		printStatus(st)
		return nil
	case "vector":
		// The client's consistency token: every version vector the server
		// has reported, merged. Feed it to another incdbctl invocation (or
		// any client) via -read-after to make its reads at least this new —
		// monotonic reads across processes and replicas.
		data, err := json.Marshal(c.Vector())
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	case "load", "append":
		if rest == "" {
			return fmt.Errorf("usage: %s <file>", head)
		}
		lr, err := c.LoadFile(strings.Trim(rest, "'\""), head == "append")
		if err != nil {
			return err
		}
		for _, rel := range lr.Relations {
			fmt.Printf("%s/%d: %d rows (version %d)\n", rel.Name, rel.Arity, rel.Rows, rel.Version)
		}
		return nil
	case "snapshot":
		data, err := c.Snapshot()
		if err != nil {
			return err
		}
		if rest == "" {
			fmt.Print(data)
			return nil
		}
		path := strings.Trim(rest, "'\"")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d bytes to %s\n", len(data), path)
		return nil
	case "promote":
		if rest != "" && rest != "force" {
			return fmt.Errorf("usage: promote [force]")
		}
		pr, err := c.Promote(rest == "force")
		if err != nil {
			return err
		}
		printPromotion(pr)
		return nil
	case "restore":
		if rest == "" {
			return fmt.Errorf("usage: restore <file>")
		}
		data, err := os.ReadFile(strings.Trim(rest, "'\""))
		if err != nil {
			return err
		}
		lr, err := c.Restore(string(data))
		if err != nil {
			return err
		}
		for _, rel := range lr.Relations {
			fmt.Printf("%s/%d: %d rows (version %d)\n", rel.Name, rel.Arity, rel.Rows, rel.Version)
		}
		return nil
	case "explain":
		sql, bag, analyze := false, false, false
		for {
			word, more, _ := strings.Cut(rest, " ")
			if word == "sql" {
				sql, rest = true, strings.TrimSpace(more)
			} else if word == "bag" {
				bag, rest = true, strings.TrimSpace(more)
			} else if word == "analyze" {
				analyze, rest = true, strings.TrimSpace(more)
			} else {
				break
			}
		}
		if rest == "" {
			return fmt.Errorf("usage: explain [sql] [bag] [analyze] <query>")
		}
		er, err := c.ExplainAnalyze(rest, sql, bag, analyze)
		if err != nil {
			return err
		}
		fmt.Print(er.Text)
		return nil
	case "query":
		// "query <proc> <expr>" — the explicit one-shot form.
		head, rest, _ = strings.Cut(rest, " ")
		rest = strings.TrimSpace(rest)
		fallthrough
	default:
		// A line starting with an evaluation procedure the server accepts
		// (a served row of the procedure table) evaluates the rest of the
		// line under it.
		proc, query := head, rest
		if p := core.Lookup(proc); p == nil || !p.Served {
			// A bare query evaluates under sql.
			proc, query = "sql", strings.TrimSpace(line)
			if strings.HasPrefix(query, "query ") {
				query = strings.TrimSpace(strings.TrimPrefix(query, "query "))
			}
		}
		if query == "" {
			return fmt.Errorf("empty query (try: cert minus(proj(0, A), B))")
		}
		qr, err := c.Query(query, proc, opts.bag, opts.maxWorlds)
		if err != nil {
			return err
		}
		printResults(qr)
		return nil
	}
}

func printResults(qr *api.QueryResponse) {
	for _, rs := range qr.Results {
		fmt.Printf("%s (%d rows, %.2fms)\n", rs.Name, len(rs.Rows), qr.ElapsedMs)
		for i, row := range rs.Rows {
			line := "  (" + strings.Join(row, ", ") + ")"
			if rs.Mults != nil && rs.Mults[i] != 1 {
				line += fmt.Sprintf(" ×%d", rs.Mults[i])
			}
			fmt.Println(line)
		}
	}
}

func printPromotion(pr *api.PromoteResponse) {
	fmt.Printf("promoted to primary at epoch %d\n", pr.Epoch)
	for sess, seq := range pr.Sessions {
		fmt.Printf("  session %q: epoch record at seq %d\n", sess, seq)
	}
}

func printStatus(st *api.StatusResponse) {
	fmt.Printf("uptime %.1fs, workers %d, in-flight %d/%d, %d session(s)\n",
		st.UptimeSeconds, st.Workers, st.InFlight, st.MaxInFlight, len(st.Sessions))
	fmt.Printf("role %s, epoch %d\n", st.Role, st.Epoch)
	if st.DataDir != "" {
		fmt.Printf("durable data dir: %s\n", st.DataDir)
	}
	if r := st.Replication; r != nil {
		fmt.Printf("replica of %s:\n", r.Primary)
		for _, rs := range r.Sessions {
			fmt.Printf("  session %q: %s, applied seq %d (%d frames, %d bootstraps)",
				rs.Session, rs.State, rs.AppliedSeq, rs.Frames, rs.Bootstraps)
			if rs.LastError != "" {
				fmt.Printf(", last error: %s", rs.LastError)
			}
			fmt.Println()
		}
	}
	for _, s := range st.Sessions {
		fmt.Printf("session %q: %d queries, cache %d entries (%d hits of which %d advanced, %d misses, %d invalidations)\n",
			s.Name, s.Queries, s.Cache.Entries, s.Cache.Hits, s.Cache.Advances, s.Cache.Misses, s.Cache.Invalidations)
		fmt.Printf("  results %d entries (%d hits, %d misses)\n",
			s.ResultCache.Entries, s.ResultCache.Hits, s.ResultCache.Misses)
		if d := s.Durability; d != nil {
			fmt.Printf("  wal %d bytes, %d records, seq %d durable %d, %d fsyncs (snapshot seq %d",
				d.WalBytes, d.WalRecords, d.Seq, d.DurableSeq, d.Syncs, d.SnapshotSeq)
			if d.LastSnapshot != "" {
				fmt.Printf(" at %s", d.LastSnapshot)
			}
			fmt.Print(")")
			if d.LastSync != "" {
				fmt.Printf(", last sync %s", d.LastSync)
			}
			fmt.Println()
		}
		for _, rel := range s.Relations {
			fmt.Printf("  %s/%d: %d rows (version %d)\n", rel.Name, rel.Arity, rel.Rows, rel.Version)
		}
	}
}
