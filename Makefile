# Checks mirror what CI runs; `make check` is the pre-commit gate.
# Nothing here measures: timings and comparisons are `make benchmark`
# (benchmark/README.md); what is exact on any host — 0 allocs on the
# fast path, bounded tables pinned at capacity, epoch/barrier counts —
# is asserted by plain tests under `make test`.

GO ?= go

.PHONY: check build vet test race fuzz bench benchmark benchmark-test profile profile-boot docs-lint report-golden loc

check: vet build docs-lint test race fuzz bench benchmark-test loc

# The ROADMAP's tracked size number: non-test Go lines outside
# benchmark/. Comment and blank lines count in the total; the split
# below it (a line whose first non-blank characters are // is a
# comment) lets a PR that claims a reduction report it net of
# comment-only changes. The per-directory lines after it (internal/<pkg>,
# cmd, examples; largest first) say where the number moved.
LOC_FIND = find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -print0
LOC_FILES = $(LOC_FIND) | xargs -0 cat

loc:
	@printf 'non-test Go lines outside benchmark/: '
	@$(LOC_FILES) | wc -l
	@$(LOC_FILES) | awk '/^[ \t]*$$/ { b++; next } /^[ \t]*\/\// { c++; next } { n++ } \
		END { printf "  code %d, comment %d, blank %d\n", n, c, b }'
	@$(LOC_FIND) | xargs -0 wc -l | awk '$$2 != "total" { split($$2, p, "/"); \
		d = p[2] == "internal" ? p[2] "/" p[3] : p[2]; n[d] += $$1 } \
		END { for (d in n) printf "  %-22s %6d\n", d, n[d] }' | sort -k2,2nr

# Documentation gate: every exported identifier in every internal/
# package must carry a doc comment that opens with the identifier's
# name (docslint also catches comments that survived a rename). The
# glob gates a new package without an edit here.
docs-lint:
	$(GO) run ./cmd/docslint $(wildcard ./internal/*/)

# Report-schema gate alone (also runs as part of `make test`): the four
# checked-in reports must round-trip byte-identically and a fresh
# catalog replay must reproduce each, twice over. Regenerate with:
#   go test ./internal/experiments -run Golden -update
report-golden:
	$(GO) test ./internal/experiments -run '^TestReportGolden$$'

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# internal/experiments runs every catalog entry on one worker and on
# eight (TestCatalogIdentity): 2–3 min under the race detector inside a
# whole-repo run on 2 vCPU (124 s within an uncached `make check`, 167 s
# on a loaded host). The 30 min timeout is headroom for slower hosts.
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
