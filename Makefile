# Build, test and verification entry points. `make ci` is the gate run
# before merging: `make fmt-check` (`gofmt -l .` must print nothing), vet
# plus staticcheck (hard-required when $CI is set, soft-skipped with an
# explicit SKIPPED line on developer machines without the tool), the
# race-detector pass over the concurrent packages (plus the pinned
# stream-driver tests), `make fleet` (the raced fleet acceptance suite,
# including TestRestartFromFlushedBytes: every answered /v2 arrival
# survives a crash that keeps only the journal bytes flushed before it),
# the full test suite — which includes the daemon's
# httptest smoke, the 50-client concurrent-admission soak and the
# wheel-vs-per-cycle equivalence suite — the stream-replay
# determinism gate (`make stream-replay`: the committed golden arrival
# trace must yield byte-identical qosd decision journals across two fresh
# drives), a trace-emit benchmark smoke, `make fuzz` (short fuzz runs over
# the checkpoint-journal line decoder, journal recovery, the goal-union
# decoder, the /v1 + /v2 submission bodies and the arrival-trace decoder),
# `make inline-check` (the two inlinings the simulator's hot loop rests on
# still happen), and `make bench-check`: every benchmark workload's
# verification checks and golden result digests. Nothing in `make ci`
# compares a speed: results are checked here, on any runner; speed is
# judged by `benchmark/` (`make bench`), parent against change on one
# machine, within the bounds BENCHMARK.json fixes. `make profile` is where
# a hot-path change starts: a CPU profile of the pinned scheduler co-runs
# (TestSchedResultsPinned), top 25 functions, nothing to patch.

GO ?= go

.PHONY: all build test bench bench-ab bench-check bench-journal inline-check profile race fuzz fmt-check staticcheck bench-trace fleet stream-replay ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark: all five BENCHMARK.json workloads, end-to-end and traced
# per-layer passes, as a table (see benchmark/README.md).
bench:
	$(GO) run ./benchmark

# "Is it faster": the paired protocol a speed claim rests on. PARENT is a
# checkout of the parent commit (git clone, outside this tree); both sides
# run the same untraced pass of one workload, alternating which goes
# first, then the seed nobody tuned against once a side. It drives
# benchmark/ and reports the metric it already measures (METRIC, default
# work_per_s), nothing of its own. Its last line says whether the pairs
# carry a claim (wins >= 0.9 of them, medians further apart than the
# parent's quartiles), and it fails when they do not.
PAIRS ?= 10
bench-ab:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-ab PARENT=<checkout> WORKLOAD=<name> [PAIRS=10] [METRIC=work_per_s]" >&2; exit 2; }
	@bash scripts/bench-ab.sh "$(PARENT)" "$(WORKLOAD)" $(PAIRS) $(METRIC)

# "Did results change": the traced pass of each workload, one second of
# timed section. Fails when the program exits non-zero (a Replayer,
# restart or window-exactness check failed) or its last line does not
# report core.stats_digest_changed = 0, i.e. results are not byte-
# identical to benchmark/golden/<workload>.digest. Machine-independent;
# leaves benchmark/out/trace-<workload>.json behind.
BENCH_WORKLOADS = sim-dense sim-sparse admit-warm admit-cold fleet-place
bench-check:
	@for w in $(BENCH_WORKLOADS); do \
		echo "bench-check: $$w"; \
		out=$$($(GO) run ./benchmark -workload $$w -trace 1 -seconds 1) \
			|| { echo "bench-check: $$w failed a verification check" >&2; exit 1; }; \
		printf '%s\n' "$$out" | tail -n 1 | grep -q '"core.stats_digest_changed":{"value":0,' \
			|| { echo "bench-check: $$w results differ from benchmark/golden/$$w.digest" >&2; exit 1; }; \
	done

# The journal layer alone: durable Appends of a decision-sized (3.4 KB)
# record into a fresh journal, five runs of 2000 each, µs per Append and
# how many Appends grew the file. The journal is the layer a warm
# admission waits on (journal.append_p50_us in `make bench`'s traced
# passes), so a change to it starts and ends here, before and after on the
# same machine. It measures the file system under $TMPDIR.
bench-journal:
	$(GO) test -run='^$$' -bench=BenchmarkJournalAppend -benchtime=2000x -count=5 ./internal/journal

# Two inlinings are load-bearing and nothing else would notice them go:
# sm.(*SM).Cycle into gpu.RunCtx's sweeps (an idle SM-cycle is a compare
# and a counter, not a call — a quarter to a half of all SM-cycles) and
# (*timeHeap).push into the memory path. The compiler says what it
# inlined (-gcflags=-m); one more statement in either body can put it
# over the budget, silently.
inline-check:
	@$(GO) build -gcflags=-m ./internal/gpu 2>&1 | grep -q 'inlining call to sm.(\*SM).Cycle' \
		|| { echo "inline-check: sm.(*SM).Cycle no longer inlines into gpu.RunCtx; every idle SM-cycle pays a call again (keep the wrapper to the idle test and the call to cycle)" >&2; exit 1; }
	@$(GO) build -gcflags=-m ./internal/sm 2>&1 | grep -q 'inlining call to (\*timeHeap).push' \
		|| { echo "inline-check: sm.(*timeHeap).push no longer inlines; every completion filed pays a call" >&2; exit 1; }

# Where simulator time goes: the pinned-results test (32 seeded co-runs,
# every scheme, both configurations) under the CPU profiler. The profile
# and the test binary pprof reads symbols from land in benchmark/out/
# (git-ignored); `go tool pprof -list 'sm.*cycle' benchmark/out/sim.test
# benchmark/out/sim.prof` digs further.
profile:
	@mkdir -p benchmark/out
	$(GO) test -count=1 -run '^TestSchedResultsPinned$$' -cpuprofile benchmark/out/sim.prof -o benchmark/out/sim.test .
	$(GO) tool pprof -top -nodecount=25 benchmark/out/sim.test benchmark/out/sim.prof

# The race-pass package list is derived, not hand-maintained: a package
# is raced iff it (or its tests) imports sync or sync/atomic — the
# repo-wide convention for "does concurrent work". Channel-only packages
# (trace) are single-owner by design and documented as such.
RACE_TMPL = {{$$p := .ImportPath}}\
{{range .Imports}}{{if or (eq . "sync") (eq . "sync/atomic")}}{{$$p}}{{"\n"}}{{end}}{{end}}\
{{range .TestImports}}{{if or (eq . "sync") (eq . "sync/atomic")}}{{$$p}}{{"\n"}}{{end}}{{end}}\
{{range .XTestImports}}{{if or (eq . "sync") (eq . "sync/atomic")}}{{$$p}}{{"\n"}}{{end}}{{end}}
RACE_PKGS = $(shell $(GO) list -f '$(RACE_TMPL)' ./internal/... | tr -d ' \t' | sort -u)

# Race-detector pass: the derived concurrent packages. The simulator core
# (internal/gpu, internal/sm) steps on one goroutine and is not on the
# list; concurrency starts one level up, in exp.Runner.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -short -count=1 ./internal/stream

# Formatting gate: gofmt -l lists every file it would rewrite; any name
# is a failure.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: not formatted:" >&2; echo "$$out" >&2; exit 1; fi

# Static analysis beyond vet. On developer machines without the tool the
# target is skipped; in CI ($CI set) a missing binary is a hard failure so
# the workflow cannot silently lose the check.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	elif [ -n "$$CI" ]; then echo "staticcheck required in CI but not installed" >&2; exit 1; \
	else echo "SKIPPED: staticcheck (not installed; CI enforces it, install locally for parity)"; fi

# Trace-collector benchmark smoke: one iteration of the enabled and
# disabled emit paths, so a regression that makes the no-op path allocate
# or slow down is visible in CI output.
bench-trace:
	$(GO) test -bench=BenchmarkEmit -benchtime=100x -run='^$$' ./internal/trace

# Time-boxed fuzz passes over the code that parses bytes from disk or
# the network: the checkpoint-journal line decoder, journal recovery over
# a damaged file (Open -> Append -> Open), the schema.Goal JSON union,
# the qosd submission path (body decoder + lowering to a kernel spec,
# /v1 and /v2) and the arrival-trace decoder `stream -mode replay` reads.
# The trace fuzzer is seeded with a 6 KB golden trace; minimizing each
# new input that large byte by byte would take the whole time box, so
# its minimization is capped by count.
fuzz:
	$(GO) test ./internal/journal -run='^$$' -fuzz=FuzzJournalDecode -fuzztime=10s
	$(GO) test ./internal/journal -run='^$$' -fuzz=FuzzJournalOpen -fuzztime=10s
	$(GO) test ./internal/schema -run='^$$' -fuzz=FuzzGoalJSON -fuzztime=10s
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzSubmitBody -fuzztime=10s
	$(GO) test ./internal/stream -run='^$$' -fuzz=FuzzTraceDecode -fuzztime=10s -fuzzminimizetime=1000x

# Fleet smoke: the multi-node placement acceptance suite — deterministic
# placements with byte-identical journal recovery on the heterogeneous
# 4-node fleet, the repartition-beats-first-fit scenario, policy-ordered
# asking against the ask-every-node reference placer, the pinned journal
# header hashes, the one-flush commit rule (a restart from only the bytes
# flushed before a crash after every answered arrival, ≈ 10 s raced on 2
# cores, and recovery that rebuilds a carried decision record or refuses a
# gap), the what-if guard on both planes (a panicking or wedged what-if
# fails one job on /v2 and /v1 while qosd keeps serving), and the /v2 HTTP
# surface — raced and uncached.
fleet:
	$(GO) test -race -count=1 -run 'TestFleetPlacementDeterminism|TestRepartitionPlacesWhatFirstFitRejects|TestPlacementMatchesAskEveryNode|TestJournalHeadersPinned|TestRestartFromFlushedBytes|TestRecoveryRebuildsOrRefuses|TestWhatIfGuardV2' ./internal/fleet
	$(GO) test -race -count=1 -run 'TestV2|TestWhatIfGuardV1' ./internal/server

# Stream-replay determinism gate: the committed golden arrival trace
# must (a) regenerate byte-identically from its spec and (b) produce
# byte-identical qosd decision journals when driven through two fresh
# daemons. STREAM_ARTIFACT_DIR (set by CI) receives the diverging
# journals on failure.
stream-replay:
	$(GO) test -count=1 -run 'TestStreamGoldenTrace|TestStreamReplayDeterminism' ./internal/stream

ci:
	$(MAKE) fmt-check
	$(GO) vet ./...
	$(MAKE) staticcheck
	$(MAKE) race
	$(MAKE) fleet
	$(GO) test ./...
	$(GO) test -run 'TestEndpointsSmoke|TestAdmissionTable|TestCacheTierReproducesSimVerdict|TestJournalHeaderPinned|TestWhatIfGuardV1|TestHealthzFullMixIsNotAStall|TestStallAfterDerivedOrRefused' -count=1 ./internal/server
	$(MAKE) stream-replay
	$(MAKE) bench-trace
	$(MAKE) fuzz
	$(MAKE) inline-check
	$(MAKE) bench-check

clean:
	$(GO) clean ./...
