GO ?= go

.PHONY: build test check bench fmt chaos lint lint-fixtures lint-graph soak

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full health check: gofmt, vet, softskulint, build, and tests under
# -race with shuffled test order.
check:
	sh scripts/check.sh

# Project-specific static analysis (DESIGN.md §9, §14), six analyzers:
# metric-name, knob-error, span-pairing, seed-plumbing and
# decision-event invariants per package, plus seeded determinism via
# the module-wide detflow call-graph taint analysis. Suppress an
# intentional finding with "//lint:ignore <analyzer> <reason>" on or
# above the line; for detflow that accepts one call edge.
lint:
	$(GO) run ./cmd/softskulint ./...

# Module call graph as DOT, annotated with nondeterminism sources
# (red), intrinsic carriers (orange), tainted nodes (filled), and
# suppressed edges (dashed). Render with: make lint-graph | dot -Tsvg
lint-graph:
	$(GO) run ./cmd/softskulint -graph ./...

# Fast iteration loop for analyzer work: just the golden-file tests
# over internal/analysis/testdata plus the CLI integration tests.
# Regenerate goldens with: go test ./internal/analysis -run TestGolden -update
lint-fixtures:
	$(GO) test -count=1 -run 'TestGolden|TestSuiteSelfClean|TestFixture|TestClean|TestOnly|TestList|TestDetflow|TestCallee|TestLoadModule|TestJSON|TestGraph' ./internal/analysis ./cmd/softskulint

# The closed-loop benchmark (bench/README.md, BENCHMARK.json): every
# workload, each in a fresh child process, end-to-end and per-layer
# metrics into out/result-<time>.json. The paper's tables and figures
# print with: go run ./cmd/characterize -tuning -ablations
bench:
	bash bench/run.sh

fmt:
	gofmt -w .

# Seeded chaos smoke: a short guardrailed tuning run under the default
# injected-fault mix. Must complete and print a composed soft SKU;
# the same -chaos-seed always reproduces the same fault schedule.
chaos:
	$(GO) run ./cmd/musku -service Web -knobs thp -chaos -chaos-seed 7 -guardrail-pct 2 -max-samples 1500 -q

# Deterministic self-healing fleet soak (DESIGN.md §13): 20 control
# epochs (one virtual day each) over the default 24-pool /
# 1008-server fleet under the sustained default fault mix plus sensor
# blackouts. Exits non-zero unless every non-quarantined pool ends
# converged. The report, decision ledger, and chaos fingerprint are a
# pure function of (-seed, -chaos-seed, fleet size) at any -parallel;
# scripts/check.sh's fleet soak smoke runs a scaled-down soak twice at
# different -parallel counts and byte-compares the ledgers.
soak:
	$(GO) run ./cmd/fleetd -chaos -chaos-seed 99 -seed 42 -epochs 20 -q
