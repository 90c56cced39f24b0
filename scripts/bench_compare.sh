#!/usr/bin/env sh
# bench_compare.sh — measure the working tree against a base commit and
# report the delta via an installed benchstat, or list the raw numbers.
#
# Usage:
#   scripts/bench_compare.sh [base-ref]
#
# Environment:
#   BENCH        benchmark regexp          (default: a representative set)
#   BENCHTIME    go test -benchtime value  (default: 0.2s)
#   COUNT        rounds per side           (default: 8)
#   OUT          output directory          (default: bench-compare-out)
#
# Besides the benchstat (or raw) text comparison, the run writes
# $OUT/compare.json — median-of-$COUNT per benchmark for both sides, the
# ratios and the median of the per-round ratios — via scripts/benchjson; CI
# uploads $OUT as an artifact.
#
# The base ref defaults to HEAD~1 (the previous commit), checked out into a
# temporary git worktree so the working tree is never disturbed. Each side's
# test binary is built once; then $COUNT rounds each run every benchmark
# once per side (-test.count=1), swapping which side goes first every round,
# so that drift in the machine's speed over the run falls on both sides
# alike instead of on whichever side ran last. Exit code
# is nonzero when the measurement itself fails OR when a gated oracle
# microbenchmark (E1/E11) regresses more than GATE_PCT percent — the
# benchjson gate enforces this on the median over rounds of new/old ns/op,
# which the JSON reports too, so it works offline and drift inside the run
# cancels; benchstat output, when installed, is informational.
# The default set includes the µᵏ and µ benchmarks (E6, E7) and the
# query-response codec (BenchmarkWireQueryResponse): reported, not gated.
set -eu

BASE_REF="${1:-HEAD~1}"
BENCH="${BENCH:-BenchmarkOperatorJoin|BenchmarkE5CTableStrategies|BenchmarkE1Figure1|BenchmarkE11NaiveEval|BenchmarkOperatorDifference|BenchmarkOperatorAntiUnify|BenchmarkTPCHMultiJoin|BenchmarkE6MuConvergence|BenchmarkE7ConditionalMu|BenchmarkWireQueryResponse}"
BENCHTIME="${BENCHTIME:-0.2s}"
COUNT="${COUNT:-8}"
OUT="${OUT:-bench-compare-out}"
GATE="${GATE:-BenchmarkE1Figure1|BenchmarkE11NaiveEval}"
GATE_PCT="${GATE_PCT:-25}"

mkdir -p "$OUT"

if ! git rev-parse --verify --quiet "$BASE_REF" >/dev/null; then
    echo "base ref $BASE_REF does not exist (first commit?); nothing to compare" >&2
    exit 0
fi

WORKTREE="$(mktemp -d)"
trap 'git worktree remove --force "$WORKTREE" >/dev/null 2>&1 || true; rm -rf "$WORKTREE"' EXIT
git worktree add --detach "$WORKTREE" "$BASE_REF" >/dev/null

echo "== building test binaries =="
BIN="$(cd "$OUT" && pwd)"
go test -c -o "$BIN/new.test" .
(cd "$WORKTREE" && go test -c -o "$BIN/old.test" .)
: >"$OUT/new.txt"
: >"$OUT/old.txt"

# run_bench SIDE DIR appends one pass of every benchmark to $OUT/SIDE.txt,
# running the binary in the package directory it was built from.
run_bench() {
    (cd "$2" && "$BIN/$1.test" -test.run='^$' -test.bench="$BENCH" -test.benchmem \
        -test.benchtime="$BENCHTIME" -test.count=1) >>"$OUT/$1.txt" 2>&1 || {
        echo "benchmark run failed ($1 side):" >&2
        cat "$OUT/$1.txt" >&2
        return 1
    }
}

round=1
while [ "$round" -le "$COUNT" ]; do
    echo "== round $round of $COUNT =="
    if [ $((round % 2)) -eq 1 ]; then
        run_bench new .
        run_bench old "$WORKTREE"
    else
        run_bench old "$WORKTREE"
        run_bench new .
    fi
    round=$((round + 1))
done

echo "== comparison =="
if command -v benchstat >/dev/null 2>&1; then
    benchstat "$OUT/old.txt" "$OUT/new.txt" | tee "$OUT/benchstat.txt"
else
    # Without an installed benchstat, list the raw measurements per side.
    echo "benchstat not installed; raw numbers:" \
        | tee "$OUT/benchstat.txt"
    {
        echo "--- old ($BASE_REF) ---"
        grep -E '^Benchmark' "$OUT/old.txt" || true
        echo "--- new (working tree) ---"
        grep -E '^Benchmark' "$OUT/new.txt" || true
    } | tee -a "$OUT/benchstat.txt"
fi

echo "== JSON report and regression gate =="
go run ./scripts/benchjson \
    -old "$OUT/old.txt" -new "$OUT/new.txt" \
    -out "$OUT/compare.json" \
    -method "go test -c per side, then $COUNT alternating rounds of -test.run='^\$' -test.bench='$BENCH' -test.benchmem -test.benchtime=$BENCHTIME -test.count=1; medians of $COUNT runs, gate on the median of per-round new/old ratios" \
    -before "$(git log -1 --format='%h (%s)' "$BASE_REF" | cut -c1-120)" \
    -gate "$GATE" -fail-over "$GATE_PCT"

echo "results in $OUT/"
