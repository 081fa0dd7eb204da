GO ?= go

.PHONY: all build test vet lint vet-analyzers race check fuzz-short cover bench bench-short bench-agg bench-strat bench-strat-short gobench

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repo's determinism linter over the injection and
# results packages (see tools/lint): no wall-clock reads, no global
# math/rand source, no unannotated map iteration.
lint:
	$(GO) run ./tools/lint

# vet-analyzers is the CI static-analysis gate: gofmt (any file it
# would rewrite fails the gate), go vet with its full standard analyzer
# suite across every package, then the determinism linter. All reuse
# the Go build cache, so a warm run is seconds.
vet-analyzers:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./tools/lint

test:
	$(GO) test ./...

# The root package's all-benchmark equivalence gates run ~10.5 minutes
# under -race on a 2-vCPU host, past go test's 10-minute default
# timeout; race and check raise it for every package.
race:
	$(GO) test -race -timeout 30m ./...

# fuzz-short runs each fuzz target for 10s beyond its seed corpus. Go
# fuzzes one target per invocation, hence one go test per target.
# FuzzDecodeState's inputs are whole state blobs (~20 KB); minimizing
# each new one would take the default 60s, the whole budget, so its
# minimization is capped at 100 runs.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeNeverPanics$$' -fuzztime 10s ./internal/asm
	$(GO) test -run '^$$' -fuzz '^FuzzParseInstrRoundTrip$$' -fuzztime 10s ./internal/asm
	$(GO) test -run '^$$' -fuzz '^FuzzReadManifest$$' -fuzztime 10s ./internal/results
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeState$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/micro

# cover writes a coverage profile and prints the per-package and total
# coverage summary.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# check is the full gate: build, vet, the determinism linter, and the
# race-enabled test suite with per-package coverage in the output.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) run ./tools/lint
	$(GO) test -race -timeout 30m -cover ./...

# bench measures per-injection cost per layer per benchmark, fast path
# vs the Reference engines (System.Reference: step engines, every fault
# run to completion), asserting bit-identical tallies on every attempt,
# a 2x median arch-layer and 1.5x median soft-layer speedup floor, and a
# 0.98x soft floor on every benchmark, and writes BENCH_<date>.json.
# bench-short is the three-benchmark small-n CI variant (separate output
# file, so it never clobbers a committed full-run artifact); it also runs
# the delta-checkpoint benchmark (cold vs warm Prepare, full-restore vs
# delta-walk, chain memory vs 12 full snapshots — tallies asserted
# bit-identical across all paths). gobench keeps the raw Go testing
# benchmarks.
bench: bench-strat
	$(GO) run ./cmd/vulnstack bench -ckpt -bench all

bench-short: bench-strat-short
	$(GO) run ./cmd/vulnstack bench -short -ckpt -bench all -out BENCH_short.json -force

# bench-strat compares injections-to-target-CI for the stratified
# campaign mode against uniform worst-case sampling on every benchmark
# at the paper's 2.88% margin. The command itself asserts the gates: a
# majority of benchmarks must need >= 3x fewer injections (1.5x in the
# small short variant, where the per-stratum pilot dominates), and every
# stratified estimate must land inside the uniform run's 99% CI.
bench-strat:
	$(GO) run ./cmd/vulnstack bench -strat -out BENCH_strat.json -force

bench-strat-short:
	$(GO) run ./cmd/vulnstack bench -strat -short -out BENCH_strat_short.json -force

# bench-agg measures record re-aggregation throughput (JSONL re-parse
# vs the streaming columnar cursor) on a small synthetic campaign,
# asserting bit-identical tallies and a speedup floor.
bench-agg:
	$(GO) run ./cmd/vulnstack bench -agg -aggrows 150000 -out BENCH_agg.json -force

gobench:
	$(GO) test -bench=. -benchmem -run=^$$ .
