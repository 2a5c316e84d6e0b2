GO ?= go

.PHONY: check build vet vettool lint test race fault-smoke chaos conformance bench bench-smoke \
	bench-e2e bench-e2e-search rerun-identical bench-baseline bench-diff serve-smoke fuzz cover jit-diff cross-build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond go vet: the repo-local multichecker (faultwrap
# error-chain preservation + mapdeterminism map-order leaks) always runs;
# staticcheck runs when installed (CI installs it; containers without
# network skip it). CI additionally drives the same multichecker through
# `go vet -vettool` (see vettool target) for build-graph-accurate file sets.
lint: vet
	$(GO) run ./tools/analyzers/cmd/vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Run the repo-local analyzers the way CI does: as a go vet tool, so the
# analyzed file set is exactly what the build graph compiles.
vettool:
	$(GO) build -o /tmp/compisa-bin/compisa-vet ./tools/analyzers/cmd/vet
	$(GO) vet -vettool=/tmp/compisa-bin/compisa-vet ./...

test:
	$(GO) test ./...

# Race-check the concurrent packages (worker pools, metrics counters,
# profile cache singleflight, candidate cache, parallel search seeds,
# store appends and the store circuit breaker).
race:
	$(GO) test -race ./internal/par/ ./internal/metrics/ ./internal/eval/ ./internal/explore/ ./internal/fault/ ./internal/cpu/ ./internal/serve/ ./internal/store/

# The JIT equivalence gate, locally (the CI jit-differential job): the
# native executor must match the interpreter byte for byte across the
# full region matrix and every deopt guard — under the race detector,
# since one engine may be shared across concurrent workers.
jit-diff:
	$(GO) test -race ./internal/jit/

# Prove platforms without the native emitter still build (the CI
# cross-build job): these link the pure-Go JIT fallback.
cross-build:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) build ./...

# Fault-tolerance smoke: the TestFault* suite exercises injection, retry,
# quarantine, cancellation, determinism, and checkpoint/resume.
fault-smoke:
	$(GO) test -run Fault -v ./internal/eval/ ./internal/explore/ ./internal/fault/ ./internal/cpu/

# Crash-safety chaos suite: kill a store-writing child process at every
# mutating operation (appends, fsyncs, compaction writes, renames) and
# prove recovery — no acked-and-synced record lost, torn tails discarded,
# reopen never fails. CHAOS_REPORT=<path> writes the recovery report JSON.
chaos:
	$(GO) test -run 'TestChaos' -v ./internal/store/

# Conformance smoke: prove the compiler emits only feature-set-legal code
# (zero findings over 26 feature sets x 49 regions, plain and compact
# encodings) and that the verifier catches every seeded mutation class.
conformance:
	$(GO) run ./cmd/compose-lint -quiet
	$(GO) run ./cmd/compose-lint -quiet -compact
	$(GO) run ./cmd/compose-lint -quiet -target alpha64
	$(GO) run ./cmd/compose-lint -mutate -quiet -region hmmer.0
	$(GO) run ./cmd/compose-lint -mutate -quiet -region hmmer.0 -target alpha64
	$(GO) test -run 'TestMutationDetection|TestCleanCompilerOutput' ./internal/check/

bench:
	$(GO) test -bench=. -benchmem

# One cheap end-to-end benchmark iteration: catches pipeline regressions
# that unit tests miss without paying for the full bench sweep.
bench-smoke:
	$(GO) test -bench 'Fig5' -benchtime 1x -run '^$$'

# One full pass of the end-to-end cold sweep (the CI bench-golden job):
# fails unless every profile's cpf1 digest and every candidate's digest
# match bench/golden.json.
bench-e2e:
	bash bench/run.sh --workload sweep-cold --seed 1 --seconds 1

# One cold sweep plus one pass of the 80 fig5/fig7a/fig8a CMP searches (a
# step of the CI bench-golden job): fails unless the profile, candidate and
# search digests all match bench/golden.json.
bench-e2e-search:
	bash bench/run.sh --workload search-mp --seed 1 --seconds 1

# Every experiment at the default GOMAXPROCS and on one processor (a step of
# the CI bench-golden job): the tables must be byte-identical, since the
# DB's simulation tier is shared by parallel workers in any interleaving.
rerun-identical:
	$(GO) build -o /tmp/compisa-bin/compose-explore ./cmd/compose-explore
	/tmp/compisa-bin/compose-explore -experiment all >/tmp/compisa-bin/all.out
	GOMAXPROCS=1 /tmp/compisa-bin/compose-explore -experiment all >/tmp/compisa-bin/all.gomaxprocs1.out
	cmp /tmp/compisa-bin/all.out /tmp/compisa-bin/all.gomaxprocs1.out

# Refresh the committed benchmark baseline (run this when a change is
# intentionally slower, and say so in the commit).
bench-baseline:
	$(GO) test -bench . -benchtime 3x -benchmem -run '^$$' -timeout 30m | tee /tmp/bench.txt
	$(GO) run ./tools/benchdiff -write -baseline BENCH_baseline.json /tmp/bench.txt

# Compare a fresh benchmark run against the committed baseline (the CI
# bench-regression gate, locally). -benchmem feeds the allocs/op gate.
bench-diff:
	$(GO) test -bench . -benchtime 3x -benchmem -run '^$$' -timeout 30m | tee /tmp/bench.txt
	$(GO) run ./tools/benchdiff -baseline BENCH_baseline.json -threshold 0.15 /tmp/bench.txt

# Boot the evaluation service on an ephemeral port, drive it with the
# closed-loop load generator, and gate on cache-hit rate and 5xx count —
# the CI serve-smoke job, locally.
serve-smoke:
	$(GO) build -o /tmp/compisa-bin/ ./cmd/compose-serve ./cmd/compose-load
	@rm -f /tmp/compisa-bin/serve.log
	/tmp/compisa-bin/compose-serve -addr 127.0.0.1:0 -regions 8 -warm 2>/tmp/compisa-bin/serve.log & \
	SERVE_PID=$$!; \
	for i in $$(seq 1 50); do \
		ADDR=$$(sed -n 's/^listening on \(http:[^ ]*\).*/\1/p' /tmp/compisa-bin/serve.log); \
		[ -n "$$ADDR" ] && curl -fsS "$$ADDR/healthz" >/dev/null 2>&1 && break; \
		sleep 0.2; \
	done; \
	[ -n "$$ADDR" ] || { echo "compose-serve did not come up"; cat /tmp/compisa-bin/serve.log; kill $$SERVE_PID; exit 1; }; \
	/tmp/compisa-bin/compose-load -addr "$$ADDR" -requests 200 -concurrency 8 -points 3 -seed 7 \
		-min-hit-rate 0.5 -max-5xx 0 -out BENCH_serve.json; \
	STATUS=$$?; kill -TERM $$SERVE_PID; wait $$SERVE_PID 2>/dev/null; exit $$STATUS

# 30-second fuzz pass over the superset instruction codec (the CI fuzz
# step, locally).
fuzz:
	$(GO) test -fuzz 'FuzzEncodeDecodeVerify$$' -fuzztime 30s -run '^$$' ./internal/encoding/
	$(GO) test -fuzz 'FuzzEncodeDecodeVerifyAlpha64$$' -fuzztime 30s -run '^$$' ./internal/encoding/

cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	$(GO) tool cover -func=coverage.out | tail -1

check: lint build test race fault-smoke chaos
