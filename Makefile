# Development targets. .github/workflows/ci.yml calls them, so each command
# is written down here only.

GO ?= go

.PHONY: all fmt fmt-check vet build test race fuzz bench bench-test bench-check bench-compare smoke smoke-replication smoke-failover clean ci loc

all: build

# Remove build and benchmark artifacts.
clean:
	rm -rf bin bench-compare-out .bench_build bench/out

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite under the race detector. Then the tests whose subject is
# an interleaving — readers advancing a shared Prepared right after an
# append, readers encoding one cached answer while its frozen part's sorted
# snapshot is published, a Sync waiter parked while the flush leader hands
# the log on, WAL tailers reading while the log flushes and compacts, spans
# ending concurrently into the trace ring — run repeatedly.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'Advance|SyncLostWakeup|ConcurrentSpans|Tail|SharedSortedSnapshot' ./internal/plan ./internal/store ./internal/obs ./internal/core

# Planner ≡ interpreter: fuzz raparse query text × generated databases
# against the reference interpreter, both modes and both semantics. Then
# the one WAL frame decoder on arbitrary bytes: no panic, an accepted frame
# is exactly the prefix consumed, encode/decode round-trips.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzPlannerMatchesInterp$$' -fuzztime=30s ./internal/plan
	$(GO) test -run='^$$' -fuzz='^FuzzReadFrame$$' -fuzztime=10s ./internal/store

# One iteration per benchmark: a smoke pass proving every benchmark still
# runs, not a measurement.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench/ is a module of its own (BENCHMARK.json's instrument), so the
# targets above never compile it. bench-test vets and tests it against this
# tree's internal/* — an API change that breaks its in-process probes fails
# here rather than in the benchmark gate — and includes a traced smoke of
# all four workloads against a real incdbd.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Every benchmark workload twice with one seed, compared against the bounds
# BENCHMARK.json fixes: the repeatability check to run before claiming or
# refuting a difference.
bench-check:
	bash bench/run.sh --check

# Measure the working tree against the previous commit (or BASE=<ref>),
# report via benchstat when available, and write the comparison to
# bench-compare-out/compare.json. Fails when a gated oracle microbenchmark
# (E1/E11) regresses more than 25%; CI uploads the output as an artifact
# either way.
BASE ?= HEAD~1
bench-compare:
	./scripts/bench_compare.sh $(BASE)

# End-to-end incdbd smoke: start the server, load the example database,
# assert a certain answer, a prepared-plan cache hit, and an incdbctl
# trace span tree.
smoke:
	./scripts/smoke_incdbd.sh

# End-to-end replication smoke: durable primary + follower, byte-identical
# answers, consistency tokens, kill/restart resume.
smoke-replication:
	./scripts/smoke_replication.sh

# End-to-end failover smoke: kill -9 the primary, promote the follower,
# assert no acknowledged write lost, failover client re-routing, and the
# revived old primary fenced read-only then rejoining as a follower.
smoke-failover:
	./scripts/smoke_failover.sh

# Non-test Go lines outside bench/, per package and in total: the number a
# "smaller" claim is made against.
loc:
	@for d in $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec dirname {} \; | sort -u); do printf '%6d %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; done
	@printf '%6d total\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)

ci: fmt-check vet build race fuzz bench bench-test smoke smoke-replication smoke-failover
