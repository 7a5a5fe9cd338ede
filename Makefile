# Checks mirror what CI runs; `make check` is the pre-commit gate.
# Nothing here measures: timings and comparisons are `make benchmark`
# (benchmark/README.md); what is exact on any host — 0 allocs on the
# fast path, bounded tables pinned at capacity, epoch/barrier counts —
# is asserted by plain tests under `make test`.

GO ?= go

.PHONY: check build vet test race fuzz bench benchmark benchmark-test profile profile-boot docs-lint report-golden loc

check: vet build docs-lint test race fuzz bench benchmark-test loc

# The ROADMAP's tracked size number: non-test Go lines outside
# benchmark/. Comment and blank lines count; a PR that claims a
# reduction reports it net of comment-only changes.
loc:
	@printf 'non-test Go lines outside benchmark/: '
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -print0 | xargs -0 cat | wc -l

# Documentation gate: every exported identifier in the observability
# surface (obs, metrics, trace), the workload/topology/control-message
# layers, the hardware-model packages, the fabric manager and the switch
# with its PMAC table, the fabric and host API that examples and
# commands program against, the control transports, the protocol and
# baseline packages, the engine, and the experiment harness must carry
# a doc comment that opens with the identifier's name (docslint also
# catches comments that survived a rename).
docs-lint:
	$(GO) run ./cmd/docslint ./internal/obs ./internal/metrics ./internal/trace \
		./internal/workload ./internal/topo ./internal/ctrlmsg ./internal/flowtable \
		./internal/fabricmgr ./internal/pswitch ./internal/pmac \
		./internal/core ./internal/host \
		./internal/ctrlnet ./internal/ldp ./internal/tcplite ./internal/baseline \
		./internal/sim ./internal/graydetect ./internal/runner ./internal/experiments

# Report-schema gate alone (also runs as part of `make test`): the four
# checked-in reports must round-trip byte-identically and a fresh
# replay must reproduce each, serial or sharded — byte-identity to the
# serial report IS the sharded engine's contract. Regenerate with:
#   go test ./internal/experiments -run Golden -update
report-golden:
	$(GO) test ./internal/experiments -run 'Fig9ReportGolden|SCReportGolden|MgrReportGolden|FTReportGolden'

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# internal/experiments runs every catalog entry serial, on three engine
# shards and on eight workers (TestCatalogIdentity): ~9 min under the
# race detector on 2 vCPU, so the default 10 min per package is too tight.
race:
	$(GO) test -race -timeout 30m ./...

# Run the checked-in fuzz seed corpora (no new exploration; CI-safe).
fuzz:
	$(GO) test -run Fuzz ./...

# One iteration per Go benchmark: a smoke test that they still compile
# and run, not a measurement.
bench:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' ./...

# The repo's one measuring instrument (its own module: ./... above does
# not reach it). benchmark-test catches an API break before a run.
benchmark-test:
	cd benchmark && $(GO) vet . && $(GO) test .

benchmark:
	bash benchmark/run.sh

# CPU + heap profiles of what users run — the whole quick sweep on one
# worker, the benchmark's paper-sweep shape — for pprof. (One figure
# alone misleads: f9 is 5% of the sweep's allocation, and a1/f10/f12,
# where the traffic sources live, are none of it.) Object counts:
#   go tool pprof -sample_index=alloc_objects -top mem.prof
profile:
	$(GO) run ./cmd/portland-bench -quick -exp all -parallel 1 -cpuprofile cpu.prof -memprofile mem.prof >/dev/null

# The same two profiles of a k=48 discovery boot, where links are most
# of the heap (the sweep's fabrics are tiny). By site:
#   go tool pprof -sample_index=alloc_space -top boot-mem.prof
profile-boot:
	$(GO) test ./internal/core -run '^$$' -bench K48Discovery -benchtime 1x -cpuprofile boot-cpu.prof -memprofile boot-mem.prof
