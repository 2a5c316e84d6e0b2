GO ?= go

.PHONY: check build vet vettool lint test race fault-smoke chaos conformance bench bench-smoke \
	bench-e2e bench-e2e-search rerun-identical bench-baseline bench-diff serve-smoke fuzz cover jit-diff cross-build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond go vet: gofmt must list no file; the repo-local
# multichecker (faultwrap error-chain preservation + mapdeterminism
# map-order leaks) always runs; staticcheck runs when installed (CI installs
# it; containers without network skip it). CI additionally drives the same
# multichecker through `go vet -vettool` (see vettool target) for
# build-graph-accurate file sets.
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting (run gofmt -w on them):"; \
		echo "$$unformatted"; exit 1; \
	fi
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
# the par.Memo singleflight under the profile, simulation and pass caches,
# candidate cache, parallel search seeds, store appends and the store
# circuit breaker). The leader/waiter tests then run again: the repeats
# shake out interleavings one pass misses. The par.Memo tests run 20 more
# times (about 1 s); the eval tests that stall a profile or simulation
# leader 5 more times (about 1.3 s a round under -race, as they profile a
# real region). The explore tests that cancel searches (about 8 s a run
# under -race) run once above.
race:
	$(GO) test -race ./internal/par/ ./internal/metrics/ ./internal/eval/ ./internal/explore/ ./internal/fault/ ./internal/cpu/ ./internal/serve/ ./internal/store/
	$(GO) test -race -count=20 -run '^TestMemo' ./internal/par/
	$(GO) test -race -count=5 -run 'Singleflight|LeaderCanceled' ./internal/eval/

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
# Figure 15 run alone must also print exactly the tail of the full run: alone
# it computes the Figure 14 costs itself, in the full run it reuses them.
rerun-identical:
	$(GO) build -o /tmp/compisa-bin/compose-explore ./cmd/compose-explore
	/tmp/compisa-bin/compose-explore -experiment all >/tmp/compisa-bin/all.out
	GOMAXPROCS=1 /tmp/compisa-bin/compose-explore -experiment all >/tmp/compisa-bin/all.gomaxprocs1.out
	cmp /tmp/compisa-bin/all.out /tmp/compisa-bin/all.gomaxprocs1.out
	/tmp/compisa-bin/compose-explore -experiment fig15 >/tmp/compisa-bin/fig15.out
	tail -c $$(wc -c </tmp/compisa-bin/fig15.out) /tmp/compisa-bin/all.out | cmp - /tmp/compisa-bin/fig15.out

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

# Boot the evaluation service on an ephemeral port with a checkpoint and a
# profile store in a fresh directory, drive it with the closed-loop load
# generator (its report goes to that directory) and gate on cache-hit rate
# and 5xx count; then evaluate one point, shut down gracefully, reboot on
# the same files and require that point to answer "cached":true, and a
# config the load never requests (in-order, width 1) of the same ISA to
# score anew: the rebooted server must run no simulation, so the exec stage
# counter on /metrics, which the checkpoint carries across the reboot, must
# read what it read before the shutdown — the CI serve-smoke job, locally.
serve-smoke:
	$(GO) build -o /tmp/compisa-bin/ ./cmd/compose-serve ./cmd/compose-load
	@rm -rf /tmp/compisa-bin/serve-state && mkdir -p /tmp/compisa-bin/serve-state
	boot() { \
		/tmp/compisa-bin/compose-serve -addr 127.0.0.1:0 -regions 8 -warm \
			-checkpoint /tmp/compisa-bin/serve-state/ckpt.json -store /tmp/compisa-bin/serve-state/profiles.log \
			2>/tmp/compisa-bin/serve-state/$$1 & \
		SERVE_PID=$$!; ADDR=; \
		for i in $$(seq 1 50); do \
			ADDR=$$(sed -n 's/^listening on \(http:[^ ]*\).*/\1/p' /tmp/compisa-bin/serve-state/$$1); \
			[ -n "$$ADDR" ] && curl -fsS "$$ADDR/healthz" >/dev/null 2>&1 && return 0; \
			sleep 0.2; \
		done; \
		echo "compose-serve did not come up"; cat /tmp/compisa-bin/serve-state/$$1; kill $$SERVE_PID; return 1; \
	}; \
	point() { curl -fsS -X POST "$$ADDR/evaluate" -d '{"isa":"vendor:Alpha"}'; }; \
	execs() { curl -fsS "$$ADDR/metrics" | sed -n 's/^compisa_eval_stage_total{stage="exec"} //p'; }; \
	boot serve.log || exit 1; \
	/tmp/compisa-bin/compose-load -addr "$$ADDR" -requests 200 -concurrency 8 -points 3 -seed 7 \
		-min-hit-rate 0.5 -max-5xx 0 -out /tmp/compisa-bin/serve-state/BENCH_serve.json; \
	STATUS=$$?; point >/dev/null || STATUS=1; \
	BEFORE=$$(execs); \
	kill -TERM $$SERVE_PID; wait $$SERVE_PID || STATUS=1; \
	[ $$STATUS = 0 ] || exit $$STATUS; \
	boot reboot.log || exit 1; \
	point >/tmp/compisa-bin/serve-state/point.json; \
	curl -fsS -X POST "$$ADDR/evaluate" >/tmp/compisa-bin/serve-state/other.json \
		-d '{"isa":"vendor:Alpha","config":{"OoO":false,"Width":1,"Predictor":1,"IQ":32,"ROB":64,"PRFInt":64,"PRFFP":16,"IntALU":1,"IntMul":1,"FPALU":1,"LSQ":16,"L1I":{"SizeKB":32,"Assoc":4},"L1D":{"SizeKB":32,"Assoc":4},"L2":{"SizeKB":4096,"Assoc":4,"Banks":4},"UopCache":false,"Fusion":true}}'; \
	AFTER=$$(execs); \
	kill -TERM $$SERVE_PID; wait $$SERVE_PID; \
	grep -q '"cached":true' /tmp/compisa-bin/serve-state/point.json || { \
		echo "the point evaluated before the reboot is not cached after it:"; \
		cat /tmp/compisa-bin/serve-state/point.json /tmp/compisa-bin/serve-state/reboot.log; exit 1; }; \
	[ -n "$$BEFORE" ] && [ "$$BEFORE" = "$$AFTER" ] && grep -q '"cached":false' /tmp/compisa-bin/serve-state/other.json || { \
		echo "the rebooted server simulated (exec stage $$BEFORE -> $$AFTER) or did not score the new config anew:"; \
		cat /tmp/compisa-bin/serve-state/other.json /tmp/compisa-bin/serve-state/reboot.log; exit 1; }

# 30-second fuzz pass over the superset instruction codec (the CI fuzz
# step, locally).
fuzz:
	$(GO) test -fuzz 'FuzzEncodeDecodeVerify$$' -fuzztime 30s -run '^$$' ./internal/encoding/
	$(GO) test -fuzz 'FuzzEncodeDecodeVerifyAlpha64$$' -fuzztime 30s -run '^$$' ./internal/encoding/

cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	$(GO) tool cover -func=coverage.out | tail -1

check: lint build test race fault-smoke chaos
