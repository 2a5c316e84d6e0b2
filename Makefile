GO ?= go

# This file is the one definition of every gate: each step of
# .github/workflows/ci.yml runs `make <target>`, and `make lint` fails when
# a step there runs anything else.

.PHONY: check build vet vettool lint test race chaos conformance bench bench-smoke bench-golden \
	bench-e2e bench-e2e-search bench-e2e-smoke rerun-identical bench-baseline bench-diff serve-smoke fuzz cover jit-diff cross-build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond go vet: every `run:` step of ci.yml must be a make
# command (the staticcheck install aside), so no gate is defined outside
# this file; gofmt must list no file; the repo-local multichecker
# (faultwrap error-chain preservation + mapdeterminism map-order leaks)
# always runs; staticcheck runs when installed (CI installs it; containers
# without network skip it). CI's lint job also drives the same multichecker
# through `go vet -vettool` (see vettool target) for build-graph-accurate
# file sets.
lint: vet
	@bad=$$(sed -n -E 's/^[[:space:]]*(- )?run:[[:space:]]*//p' .github/workflows/ci.yml | \
		grep -v -E '^make( |$$)|^go install honnef\.co/go/tools/cmd/staticcheck@latest$$'); \
	if [ -n "$$bad" ]; then \
		echo ".github/workflows/ci.yml runs steps that are not make targets (define the gate here and call make):"; \
		echo "$$bad"; exit 1; \
	fi
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
# candidate cache, parallel search seeds, concurrent store Puts and the
# server's reads of the DB's persist health). The leader/waiter tests then run again: the repeats
# shake out interleavings one pass misses. The par.Memo tests run 20 more
# times (about 1 s); the eval tests that stall a profile or simulation
# leader 5 more times (about 1.3 s a round under -race, as they profile a
# real region). The explore tests that cancel searches (about 8 s a run
# under -race) run once above.
race:
	$(GO) test -race ./internal/par/ ./internal/metrics/ ./internal/eval/ ./internal/explore/ ./internal/fault/ ./internal/cpu/ ./internal/serve/ ./internal/store/
	$(GO) test -race -count=20 -run '^TestMemo' ./internal/par/
	$(GO) test -race -count=5 -run 'Singleflight|LeaderCanceled' ./internal/eval/

# The JIT equivalence gate (the CI jit-differential job): the native
# executor must match the interpreter byte for byte across the full region
# matrix and every deopt guard — under the race detector, since one engine
# may be shared across concurrent workers — then a 30-second pass of the
# differential fuzzer.
jit-diff:
	$(GO) test -race -v ./internal/jit/
	$(GO) test -fuzz 'FuzzJITDifferential' -fuzztime 30s -run '^$$' ./internal/jit/

# Prove platforms without the native emitter still build and vet (the CI
# cross-build job): these link the pure-Go JIT fallback.
cross-build:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./...
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) vet ./...

# Crash-safety chaos suite: kill a store-writing child process at every
# mutating operation of its Puts (temp writes, fsyncs, renames, directory
# fsyncs) and prove recovery — no acknowledged record lost, no record
# damaged, no temp left, reopen never fails. CHAOS_REPORT=<absolute path>
# writes the recovery report JSON (the CI chaos job uploads it on failure).
chaos:
	$(GO) test -run 'TestChaos' -v ./internal/store/

# Conformance (the CI conformance job): prove the compiler emits only
# feature-set-legal code (zero findings over 26 feature sets x 49 regions,
# plain and compact encodings, x86 and alpha64), that the verifier catches
# every seeded mutation class, and that Verify agrees with Analyze. The
# x86 findings and mutation reports land as JSON in
# /tmp/compisa-bin/conformance, which CI uploads.
conformance:
	@mkdir -p /tmp/compisa-bin/conformance
	$(GO) test -run 'TestMutationDetection|TestCleanCompilerOutput|TestVerifyMatchesAnalyze' -v ./internal/check/
	$(GO) run ./cmd/compose-lint -json >/tmp/compisa-bin/conformance/compose-lint-findings.json
	$(GO) run ./cmd/compose-lint -quiet -compact
	$(GO) run ./cmd/compose-lint -quiet -target alpha64
	$(GO) run ./cmd/compose-lint -mutate -quiet -region hmmer.0 -target alpha64
	$(GO) run ./cmd/compose-lint -mutate -json -region hmmer.0 >/tmp/compisa-bin/conformance/compose-lint-mutation.json

bench:
	$(GO) test -bench=. -benchmem

# One cheap end-to-end benchmark iteration: catches pipeline regressions
# that unit tests miss without paying for the full bench sweep.
bench-smoke:
	$(GO) test -bench 'Fig5' -benchtime 1x -run '^$$'

# One full pass of the end-to-end cold sweep (a step of bench-golden):
# fails unless every profile's cpf1 digest and every candidate's digest
# match bench/golden.json.
bench-e2e:
	bash bench/run.sh --workload sweep-cold --seed 1 --seconds 1

# One cold sweep plus one pass of the 80 fig5/fig7a/fig8a CMP searches (a
# step of bench-golden): fails unless the profile, candidate and search
# digests all match bench/golden.json.
bench-e2e-search:
	bash bench/run.sh --workload search-mp --seed 1 --seconds 1

# The benchmark's own tests (a step of bench-golden): all three
# workloads, serve-mixed over loopback included, on 3 regions (~17 s), each
# run twice to the same digests, with serve-mixed checking every reply and
# re-evaluating a sample of them on a fresh DB.
bench-e2e-smoke:
	cd bench && $(GO) test ./...

# Every experiment at the default GOMAXPROCS and on one processor (a step of
# bench-golden): the tables must be byte-identical, since the
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

# The CI bench-golden job: the cold sweep and the CMP searches against
# bench/golden.json at the default GOMAXPROCS and again on one processor
# (ISA keys that compile a region identically share one simulation, and
# parallel climbs share each search's pass memo, so no leader/follower
# interleaving may move a digest), then rerun-identical and the benchmark's
# own tests.
bench-golden:
	$(MAKE) bench-e2e
	GOMAXPROCS=1 $(MAKE) bench-e2e
	$(MAKE) bench-e2e-search
	GOMAXPROCS=1 $(MAKE) bench-e2e-search
	$(MAKE) rerun-identical bench-e2e-smoke

# Refresh the committed benchmark baseline (run this when a change is
# intentionally slower, and say so in the commit).
bench-baseline:
	@mkdir -p /tmp/compisa-bin/bench
	$(GO) test -bench . -benchtime 3x -benchmem -run '^$$' -timeout 30m | tee /tmp/compisa-bin/bench/bench.txt
	$(GO) run ./tools/benchdiff -write -baseline BENCH_baseline.json /tmp/compisa-bin/bench/bench.txt

# Compare a fresh benchmark run against the committed baseline (the CI
# bench-regression job). -benchmem feeds the allocs/op gate, and
# -require-baseline fails on any benchmark the baseline lacks. The run and
# the comparison land in /tmp/compisa-bin/bench, which CI uploads.
bench-diff:
	@mkdir -p /tmp/compisa-bin/bench
	$(GO) test -bench . -benchtime 3x -benchmem -run '^$$' -timeout 30m | tee /tmp/compisa-bin/bench/bench.txt
	$(GO) run ./tools/benchdiff -baseline BENCH_baseline.json -threshold 0.15 -require-baseline \
		-out /tmp/compisa-bin/bench/bench-new.json /tmp/compisa-bin/bench/bench.txt

# Boot the evaluation service on an ephemeral port on a fresh store
# directory (with -stats, so its log ends with the pipeline statistics),
# drive it with the closed-loop load generator (its report goes to the
# state directory) and gate on cache-hit rate and 5xx count; scrape
# /metrics and require the serving-layer families, each family's TYPE
# header exactly once; then evaluate one point, shut down gracefully,
# reboot on the same directory and require that point to answer
# "cached":true, and a config the load never requests (in-order, width 1)
# of the same ISA to score anew: the rebooted server must run no
# simulation, so the exec stage counter on /metrics, which the run record
# carries across the reboot, must read what it read before the shutdown.
# A third boot after deleting the run record (so every counter starts at
# 0) must score another never-requested config (in-order, width 2)
# "cached":false with the exec stage counter at 0: the profile-set records
# by themselves warm-start the profile tier. CI's serve-smoke job runs
# this target and uploads the state directory's reports and logs.
serve-smoke:
	$(GO) build -o /tmp/compisa-bin/ ./cmd/compose-serve ./cmd/compose-load
	@rm -rf /tmp/compisa-bin/serve-state && mkdir -p /tmp/compisa-bin/serve-state
	STATE=/tmp/compisa-bin/serve-state; \
	boot() { \
		LOG=$$STATE/$$1; shift; \
		/tmp/compisa-bin/compose-serve -addr 127.0.0.1:0 -regions 8 -store $$STATE/store "$$@" 2>$$LOG & \
		SERVE_PID=$$!; ADDR=; \
		for i in $$(seq 1 50); do \
			ADDR=$$(sed -n 's/^listening on \(http:[^ ]*\).*/\1/p' $$LOG); \
			[ -n "$$ADDR" ] && curl -fsS "$$ADDR/healthz" >/dev/null 2>&1 && return 0; \
			sleep 0.2; \
		done; \
		echo "compose-serve did not come up"; cat $$LOG; kill $$SERVE_PID; return 1; \
	}; \
	point() { curl -fsS -X POST "$$ADDR/evaluate" -d '{"isa":"vendor:Alpha"}'; }; \
	inorder() { curl -fsS -X POST "$$ADDR/evaluate" \
		-d '{"isa":"vendor:Alpha","config":{"OoO":false,"Width":'$$1',"Predictor":1,"IQ":32,"ROB":64,"PRFInt":64,"PRFFP":16,"IntALU":1,"IntMul":1,"FPALU":1,"LSQ":16,"L1I":{"SizeKB":32,"Assoc":4},"L1D":{"SizeKB":32,"Assoc":4},"L2":{"SizeKB":4096,"Assoc":4,"Banks":4},"UopCache":false,"Fusion":true}}'; }; \
	execs() { curl -fsS "$$ADDR/metrics" | sed -n 's/^compisa_eval_stage_total{stage="exec"} //p'; }; \
	boot serve.log -warm -stats || exit 1; \
	/tmp/compisa-bin/compose-load -addr "$$ADDR" -requests 200 -concurrency 8 -points 3 -seed 7 \
		-min-hit-rate 0.5 -max-5xx 0 -out $$STATE/BENCH_serve.json; \
	STATUS=$$?; \
	curl -fsS "$$ADDR/metrics" >$$STATE/metrics.txt || STATUS=1; \
	grep -E 'serve_(evaluations|coalesced|cache_hits)_total' $$STATE/metrics.txt || { \
		echo "/metrics lacks the serving-layer families"; STATUS=1; }; \
	DUP=$$(grep '^# TYPE' $$STATE/metrics.txt | sort | uniq -d); \
	[ -z "$$DUP" ] || { echo "duplicate metric families: $$DUP"; STATUS=1; }; \
	point >/dev/null || STATUS=1; \
	BEFORE=$$(execs); \
	kill -TERM $$SERVE_PID; wait $$SERVE_PID || STATUS=1; \
	[ $$STATUS = 0 ] || exit $$STATUS; \
	boot reboot.log || exit 1; \
	point >$$STATE/point.json; \
	inorder 1 >$$STATE/other.json; \
	AFTER=$$(execs); \
	kill -TERM $$SERVE_PID; wait $$SERVE_PID; \
	grep -q '"cached":true' $$STATE/point.json || { \
		echo "the point evaluated before the reboot is not cached after it:"; \
		cat $$STATE/point.json $$STATE/reboot.log; exit 1; }; \
	[ -n "$$BEFORE" ] && [ "$$BEFORE" = "$$AFTER" ] && grep -q '"cached":false' $$STATE/other.json || { \
		echo "the rebooted server simulated (exec stage $$BEFORE -> $$AFTER) or did not score the new config anew:"; \
		cat $$STATE/other.json $$STATE/reboot.log; exit 1; }; \
	rm $$STATE/store/run.rec || exit 1; \
	boot storeonly.log || exit 1; \
	inorder 2 >$$STATE/storeonly.json; \
	STOREONLY=$$(execs); \
	kill -TERM $$SERVE_PID; wait $$SERVE_PID; \
	[ "$$STOREONLY" = 0 ] && grep -q '"cached":false' $$STATE/storeonly.json || { \
		echo "the store-only boot simulated (exec stage $$STOREONLY) or did not score the new config anew:"; \
		cat $$STATE/storeonly.json $$STATE/storeonly.log; exit 1; }

# 30-second fuzz passes over the superset instruction codec, x86 and
# alpha64 (steps of check).
fuzz:
	$(GO) test -fuzz 'FuzzEncodeDecodeVerify$$' -fuzztime 30s -run '^$$' ./internal/encoding/
	$(GO) test -fuzz 'FuzzEncodeDecodeVerifyAlpha64$$' -fuzztime 30s -run '^$$' ./internal/encoding/

# The whole test suite, once, with a coverage profile (a step of check; CI
# uploads coverage.out): the per-cell digest tests and the TestFault* suite
# run here too.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# The CI check job.
check: build cover race fuzz
