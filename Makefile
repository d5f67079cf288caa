# Build, test and verification entry points. `make ci` is the gate run
# before merging: `make fmt-check` (`gofmt -l .` must print nothing), vet,
# `make arch386` (vet for GOARCH=386 and the golden-bearing packages' tests
# run there), `make arch-check` (no fused multiply-add in this module's
# code on arm64 or riscv64), staticcheck (hard-required when $CI is set,
# soft-skipped with an explicit SKIPPED line on developer machines without
# the tool), the
# race-detector pass over the concurrent packages (plus the pinned
# stream-driver tests), `make fleet` (the raced fleet acceptance suite,
# including TestRestartFromFlushedBytes: every answered /v2 arrival
# survives a crash that keeps only the journal bytes flushed before it),
# the full test suite — which includes the daemon's
# httptest smoke, the 50-client concurrent-admission soak, the
# wheel-vs-per-cycle equivalence suite, the exports rules
# (TestNoExportOnlyTestsCall: every exported name under internal/ is
# referenced by production code or carries an allow-list reason;
# TestNoFieldOnlyTestsRead: every struct field there is read by
# production code, JSON-encoded or allow-listed) and the
# doc rule (TestDocsDescribeTheTree: every Go name, binary flag, make
# target and path the docs cite exists, and every -run, -bench and
# -fuzz alternative below selects a function) — the
# stream-replay
# determinism gate (`make stream-replay`: the committed golden arrival
# trace must yield byte-identical qosd decision journals across two fresh
# drives), a trace-emit benchmark smoke, `make fuzz` (short fuzz runs over
# the decision-journal line decoder and encoder, its payload validator,
# journal recovery, the goal-union decoder, the fast paths of the fleet and /v1 journal
# records, the /v1 + /v2 submission bodies, the arrival-trace decoder
# and the row decoder),
# `make inline-check` (the two inlinings the simulator's hot loop rests on
# still happen), and `make bench-check`: every benchmark workload's
# verification checks and golden result digests. Nothing in `make ci`
# compares a speed: results are checked here, on any runner; speed is
# judged by `benchmark/` (`make bench`), parent against change on one
# machine, within the bounds BENCHMARK.json fixes. `make profile` is where
# a hot-path or allocation change starts: a CPU and an allocation profile
# of the pinned scheduler co-runs (TestSchedResultsPinned), the top 25
# functions and the top 15 allocation sites, nothing to patch.

GO ?= go

.PHONY: all build test bench bench-ab bench-check bench-journal inline-check profile race fuzz rows-check fmt-check staticcheck bench-trace arch386 arch-check fleet stream-replay ci clean

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
# record into a fresh journal, five runs of 2000 each: µs per Append, how
# many Appends grew the file, the bytes per Append the handle retains and,
# with -benchmem, what each Append allocates. Then recovery: Open + Each
# over 10⁴ such records, five runs of five, µs per record recovered. Then
# a whole fleet restart, fleet.New over the journals of 200 arrivals on
# the benchmark's four-node fleet (decided by a stub, not the simulator):
# records decoded, verdict caches replayed, placements rebuilt, five runs
# of twenty, µs and allocations per record recovered, with the mix of
# node records that sets what one costs (% with a verdict, key-only
# admits, key-only rejects), so a figure compares across changes only
# at the same mix. The journal is the
# layer a warm admission waits on (journal.append_p50_us in `make bench`'s
# traced passes) and the bulk of a restart, so a change to it starts and
# ends here, before and after on the same machine. It measures the file
# system under $TMPDIR.
bench-journal:
	$(GO) test -run='^$$' -bench=BenchmarkJournalAppend -benchtime=2000x -count=5 -benchmem ./internal/journal
	$(GO) test -run='^$$' -bench=BenchmarkJournalRecover -benchtime=5x -count=5 -benchmem ./internal/journal
	$(GO) test -run='^$$' -bench=BenchmarkFleetRecover -benchtime=20x -count=5 -benchmem ./internal/fleet

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

# Where simulator time and memory go: the pinned-results test (28 seeded
# co-runs, every scheme, both configurations) under the CPU and the
# allocation profiler, one run for both. The profiles and the test binary
# pprof reads symbols from land in benchmark/out/ (git-ignored); it prints
# the top 25 functions by CPU and the top 15 allocation sites by bytes
# allocated, sampled every 4 KiB (the default 512 KiB would leave about
# ten samples of the run's ≈ 4.7 MB: half of it the profiler's own, most
# of the rest devices built cold, as a fresh session's first co-run
# builds one). Then what a warm co-run costs, one per scheme on a warm
# session (BenchmarkWarmCoRun): B/op and allocs/op, nearly all of it
# the Result. `go tool pprof -list 'sm.*cycle' benchmark/out/sim.test
# benchmark/out/sim.prof` (or `-sample_index=alloc_space ... sim.mem`)
# digs further.
profile:
	@mkdir -p benchmark/out
	$(GO) test -count=1 -run '^TestSchedResultsPinned$$' -cpuprofile benchmark/out/sim.prof -memprofile benchmark/out/sim.mem -memprofilerate=4096 -o benchmark/out/sim.test .
	$(GO) tool pprof -top -nodecount=25 benchmark/out/sim.test benchmark/out/sim.prof
	$(GO) tool pprof -top -nodecount=15 -sample_index=alloc_space benchmark/out/sim.test benchmark/out/sim.mem
	$(GO) test -count=1 -run '^$$' -bench '^BenchmarkWarmCoRun$$' -benchtime=10x -benchmem ./internal/core

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
# the network: the decision-journal line decoder (its one-pass fast path
# against the full decoder), the case-line encoder (against encoding the
# line struct), the fast path's payload validator (against json.Valid),
# journal recovery over a damaged file (Open -> Append -> Open), the schema.Goal JSON union (against the two-pass decoder),
# the record fast paths recovery reads a fleet node's decisions, the
# placement journal and the /v1 job log through (each against
# json.Unmarshal), the qosd submission path (body decoder + lowering to
# a kernel spec, /v1 and /v2), the arrival-trace decoder `stream -mode
# replay` reads and the row decoder qossim reads results/full through.
# The trace fuzzer is seeded with a 6 KB golden trace and the row fuzzer
# with whole row files; minimizing each new input that large byte by
# byte would take the whole time box, so both cap minimization by count.
fuzz:
	$(GO) test ./internal/journal -run='^$$' -fuzz=FuzzJournalDecode -fuzztime=10s
	$(GO) test ./internal/journal -run='^$$' -fuzz=FuzzEncodeCase -fuzztime=10s
	$(GO) test ./internal/journal -run='^$$' -fuzz=FuzzCompactValid -fuzztime=10s
	$(GO) test ./internal/journal -run='^$$' -fuzz=FuzzJournalOpen -fuzztime=10s
	$(GO) test ./internal/schema -run='^$$' -fuzz=FuzzGoalJSON -fuzztime=10s
	$(GO) test ./internal/fleet -run='^$$' -fuzz=FuzzNodeDecision -fuzztime=10s
	$(GO) test ./internal/fleet -run='^$$' -fuzz=FuzzPlacementRecord -fuzztime=10s
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzV1Decision -fuzztime=10s
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzSubmitBody -fuzztime=10s
	$(GO) test ./internal/stream -run='^$$' -fuzz=FuzzTraceDecode -fuzztime=10s -fuzzminimizetime=1000x
	$(GO) test ./internal/exp -run='^$$' -fuzz=FuzzDecodeRows -fuzztime=10s -fuzzminimizetime=1000x

# Staleness gate over the committed rows: 52 class-stratified cases of
# results/full's 23 stages (40 of the 11 full-grid ones, one of each of
# the 12 subsample-6 ones) re-simulate through Runner.Run's case subset
# and must render byte-equal rows (about 35 s on two cores). A change
# that moves a simulated result fails here, and re-runs the committed
# study (EXPERIMENTS.md) as it re-runs -update-golden.
rows-check:
	$(GO) test -count=1 -run '^TestCommittedRowsAreCurrent$$' ./internal/exp -stale

# 32-bit check: results must be byte-identical on a 32-bit target too.
# GOARCH=386 runs natively on amd64, so the whole tree is vetted for it
# (an int constant past 32 bits fails to compile there) and the packages
# that pin results in goldens — figures, scheduler results and the trace
# (root), the arrival streams, the journal codec — run their tests on it,
# as does internal/sm: its narrowed warp-context fields, the 64-byte
# layout bound, refScheduler and the mask invariants on a 32-bit target;
# and internal/cache and internal/mem, whose set index is an int shift of
# the address and int is 32 bits there: the tag store against its model
# and the partition slices against full ones; and internal/core, whose
# sessions rebuild their last device in place: reused devices against
# fresh ones, and the second run's allocation bound; and internal/qos:
# the epoch step's table of the paper's quota rules (TestStep) and the
# manager's carry and gate tests. internal/stream's ports of math.Log and
# math.Sin are held to the standard library bit for bit here too.
arch386:
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test -count=1 . ./internal/stream ./internal/journal ./internal/sm ./internal/cache ./internal/mem ./internal/core ./internal/qos

# Fused multiply-add guard: Go may fuse x*y + z into one rounding on
# arm64, riscv64, ppc64le and loong64, never on amd64, so no amd64 run
# notices a fused site. Every cmd/* is cross-compiled for arm64 and
# riscv64 and disassembled; any FMADDD/FMSUBD/FNMADDD/FNMSUBD in a repro/
# function fails (scripts/arch-check.sh). An explicit float64(...) around
# the product is the fix.
arch-check:
	@bash scripts/arch-check.sh

# Fleet smoke: the multi-node placement acceptance suite — deterministic
# placements with byte-identical journal recovery on the heterogeneous
# 4-node fleet, a job that fits on no node placed through the repartition
# search, best-fit-ordered asking against the ask-every-node reference
# placer, the pinned journal
# header hashes, the one-flush commit rule (a restart from only the bytes
# flushed before a crash after every answered arrival, ≈ 10 s raced on 2
# cores, and recovery that rebuilds a carried decision record or refuses a
# gap, reads slim and legacy placement records alike and refuses a slim
# record that names no replayed admit), node journals recovered
# concurrently yet failing deterministically (the lowest-index damaged
# node is named, every journal closed),
# same-device nodes sharing one isolated-baseline cache, the
# what-if guard on both planes (a panicking or wedged what-if
# fails one job on /v2 and /v1 while qosd keeps serving), and the /v2 HTTP
# surface — raced and uncached.
fleet:
	$(GO) test -race -count=1 -run 'TestFleetPlacementDeterminism|TestRepartitionPlacesWhatFitsNowhere|TestPlacementMatchesAskEveryNode|TestJournalHeadersPinned|TestRestartFromFlushedBytes|TestRecoveryRebuildsOrRefuses|TestParallelRecoveryNamesLowestNode|TestSameConfigNodesShareBaselines|TestWhatIfGuardV2' ./internal/fleet
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
	$(MAKE) arch386
	$(MAKE) arch-check
	$(MAKE) staticcheck
	$(MAKE) race
	$(MAKE) fleet
	$(GO) test ./...
	$(GO) test -run 'TestEndpointsSmoke|TestAdmissionTable|TestCacheTierReproducesSimVerdict|TestJournalHeaderPinned|TestWhatIfGuardV1|TestHealthzFullMixIsNotAStall|TestStallAfterDerived' -count=1 ./internal/server
	$(MAKE) stream-replay
	$(MAKE) bench-trace
	$(MAKE) fuzz
	$(MAKE) rows-check
	$(MAKE) inline-check
	$(MAKE) bench-check

clean:
	$(GO) clean ./...
