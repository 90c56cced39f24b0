package server

import (
	"errors"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"incdb/internal/api"
	"incdb/internal/raparse"
	"incdb/internal/tpch"
)

// refusalChild marks the child process TestRefusedCTableLeavesServerServing
// runs its body in.
const refusalChild = "INCDB_REFUSAL_CHILD"

// TestRefusedCTableLeavesServerServing: on the tpch_join benchmark instance
// ctable-aware on Q10 and on Q12 (each a 1 830 × 743 c-row product) is
// refused with a 422 within seconds, and the server answers the next sql
// query. The body runs in a child process whose address space is capped, so
// a regression that builds the product fails this test instead of killing
// the test binary or exhausting the machine's memory.
func TestRefusedCTableLeavesServerServing(t *testing.T) {
	if os.Getenv(refusalChild) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRefusedCTableLeavesServerServing$", "-test.v", "-test.timeout=120s")
		cmd.Env = append(os.Environ(), refusalChild+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child process: %v\n%s", err, out)
		}
		return
	}
	if !raceEnabled { // the race detector's shadow memory needs more
		lim := syscall.Rlimit{Cur: 3 << 30, Max: 3 << 30}
		if err := syscall.Setrlimit(syscall.RLIMIT_AS, &lim); err != nil {
			t.Fatalf("cap address space: %v", err)
		}
	}
	text, err := raparse.RenderDatabase(tpch.Dirty(tpch.Generate(tpch.BenchConfig()), 0.02, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, c := newTestServer(t)
	if _, err := c.Load(text, false); err != nil {
		t.Fatalf("load: %v", err)
	}
	queries := map[string]string{
		"Q10": "proj(9 3, sel(and(eq(0, 4), eq(5, 8)), times(times(lineitem, orders), customer)))",
		"Q12": "proj(9 3, sel(and(eq(0, 4), and(eq(5, 8), and(eq(10, 13), and(eq(15, 16), eqc(7, 'F'))))), times(times(times(times(lineitem, orders), customer), nation), region)))",
	}
	for _, nq := range tpch.MultiJoinQueries() {
		name := nq.Name[:strings.IndexByte(nq.Name, '-')]
		if text, ok := queries[name]; ok {
			if q, err := raparse.ParseQuery(text); err != nil || q.String() != nq.Q.String() {
				t.Fatalf("%s: text %q is not tpch's query %s (%v)", name, text, nq.Q, err)
			}
		}
	}
	for _, name := range []string{"Q10", "Q12"} {
		start := time.Now()
		_, err := c.Query(queries[name], "ctable-aware", false, 0)
		var ae *api.Error
		if !errors.As(err, &ae) || ae.Status != http.StatusUnprocessableEntity || !strings.Contains(ae.Message, "1830 × 743") {
			t.Errorf("%s: ctable-aware err %v, want the 1830 × 743 product refused with a 422", name, err)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("%s: refusal took %v", name, d)
		}
	}
	if _, err := c.Query("proj(0, customer)", "sql", false, 0); err != nil {
		t.Errorf("sql after the refusals: %v", err)
	}
}
