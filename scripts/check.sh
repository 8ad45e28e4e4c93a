#!/bin/sh
# Repo-wide health check: formatting, vet, build, and the full test
# suite under the race detector. Run via `make check` or directly.
# Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== softskulint =="
# Project-specific invariants (DESIGN.md §9, §14): seeded determinism,
# constant metric names, never-dropped knob errors, closed trace
# spans, caller-controlled randomness, and the module-wide detflow
# call-graph taint gate (no sim-facing export may transitively reach a
# nondeterminism source). Runs in -json so the findings stay machine-
# readable in CI logs; any finding fails the check, and the extracted
# summary line shows the gate ran (including suppressed/stale counts).
if ! lint_json=$(go run ./cmd/softskulint -json ./...); then
	echo "softskulint findings:" >&2
	echo "$lint_json" >&2
	exit 1
fi
echo "$lint_json" | sed -n 's/^  "summary": "\(.*\)",*$/\1/p'

echo "== go build =="
go build ./...

echo "== go test -race =="
# The race detector is 5-20x slower than a plain run; on small CI
# boxes the sim package alone can blow go test's default 10m
# per-package timeout, so give it explicit headroom. -shuffle=on
# randomizes test order so hidden inter-test dependencies surface
# here instead of in a future refactor (the seed is printed on
# failure for replay with -shuffle=<seed>). This pass is also the
# serial/parallel equivalence gate: internal/core's
# TestParallelSweepBitIdentical* run -parallel=1 vs 8 (chaos off and
# on) under the race detector and require identical Result structs,
# logs, and fault fingerprints.
go test -race -shuffle=on -timeout 45m ./...

echo "== bench module =="
# bench/ is a Go module of its own (replace softsku => ../), so the
# ./... patterns above never build, vet or test it. Its test is the
# ~20 s smoke of every workload plus the schema and verdict checks;
# it runs without -race to stay short.
go -C bench vet .
go -C bench test .

echo "== reference fuzz =="
# Each fast path that replaced a simpler one keeps the old code in a
# test file as its oracle and must match it bit for bit; the two
# readers of outside text (the decision-ledger JSONL and the µSKU
# input file) must never panic, and the ledger reader must round-trip
# what it accepts. go test above only replays the seed corpora; here
# each target explores for 10 s (no -race). Minimizing each new
# coverage input may take 60 s by default, which stalled whole runs at
# a dozen execs, so it is capped at 1 s. A failing input is written
# under the package's testdata/fuzz/ and replays in every later go test.
# FuzzDeferredLLCMatchesImmediate is the oracle of the window's stages
# (DESIGN.md §11): cores whose private levels run ahead and whose logged
# LLC ops are applied later must end exactly as the immediate hierarchy.
for target in \
	FuzzCacheMatchesReference:./internal/cache \
	FuzzEngineMatchesReference:./internal/prefetch \
	FuzzDeferredLLCMatchesImmediate:./internal/prefetch \
	FuzzAnalyzeMatchesReference:./internal/cpu \
	FuzzSolveMatchesReference:./internal/sim \
	FuzzReadJSONL:./internal/decision \
	FuzzParseInput:./internal/core; do
	go test -run XXX -fuzz "${target%%:*}" -fuzztime 10s -fuzzminimizetime 1s "${target#*:}"
done

echo "== chaos smoke =="
out=$(go run ./cmd/musku -service Web -knobs thp -chaos -chaos-seed 7 -guardrail-pct 2 -max-samples 1500 -q)
if ! echo "$out" | grep -q "soft SKU:"; then
	echo "chaos smoke: tuning under injected faults composed no soft SKU" >&2
	echo "$out" >&2
	exit 1
fi
echo "$out" | grep "soft SKU:"

echo "== sim-cache equivalence smoke =="
# The characterization cache must be invisible in results: the same
# short tuning run with the cache on (default) and off has to emit
# byte-identical JSON. Complements internal/core's
# TestSimCacheBitIdentical (which also covers -parallel and chaos).
cached=$(go run ./cmd/musku -service Web -knobs thp,shp -max-samples 1500 -seed 3 -q -json)
uncached=$(go run ./cmd/musku -service Web -knobs thp,shp -max-samples 1500 -seed 3 -q -json -sim-cache=off)
if [ "$cached" != "$uncached" ]; then
	echo "sim-cache smoke: cached and uncached runs diverged" >&2
	echo "--- cached ---" >&2
	echo "$cached" >&2
	echo "--- uncached ---" >&2
	echo "$uncached" >&2
	exit 1
fi
echo "cached and uncached runs identical"

echo "== sim-cache half-memoization smoke =="
# A hill climb composes knobs, so its windows also take the paths the
# thp,shp run above never reaches: a memory-only replay (a prefetch
# arm whose TLB half is memoized) and no replay at all (both halves
# memoized by earlier arms). The cache must stay invisible there too.
cached=$(go run ./cmd/musku -service Web -knobs thp,shp,prefetch -sweep hill -max-samples 1500 -seed 3 -q -json)
uncached=$(go run ./cmd/musku -service Web -knobs thp,shp,prefetch -sweep hill -max-samples 1500 -seed 3 -q -json -sim-cache=off)
if [ "$cached" != "$uncached" ]; then
	echo "sim-cache half smoke: cached and uncached hill climbs diverged" >&2
	echo "--- cached ---" >&2
	echo "$cached" >&2
	echo "--- uncached ---" >&2
	echo "$uncached" >&2
	exit 1
fi
echo "cached and uncached hill climbs identical"

echo "== observability serve smoke =="
# A real musku run with the live server attached: the scrape endpoints
# must come up, /metrics must carry the softsku_ namespace, and the
# finished run's decision ledger must be visible at /debug/decisions
# and in the -decisions-out JSONL.
if command -v curl >/dev/null 2>&1 || command -v wget >/dev/null 2>&1; then
	fetch() {
		if command -v curl >/dev/null 2>&1; then
			curl -sf "$1"
		else
			wget -qO- "$1"
		fi
	}
	obsdir=$(mktemp -d)
	go build -o "$obsdir/musku" ./cmd/musku
	"$obsdir/musku" -service Web -knobs thp -max-samples 1500 -q \
		-serve 127.0.0.1:0 -decisions-out "$obsdir/decisions.jsonl" \
		>/dev/null 2>"$obsdir/err.log" &
	musku_pid=$!
	trap 'kill "$musku_pid" 2>/dev/null || true; rm -rf "$obsdir"' EXIT
	# The resolved address (the port of -serve :0) prints once the run
	# finishes and the server stays up to be scraped.
	addr=""
	tries=0
	while [ "$tries" -lt 120 ]; do
		addr=$(sed -n 's#.*serving observability on http://\([^ ]*\).*#\1#p' "$obsdir/err.log")
		[ -n "$addr" ] && break
		if ! kill -0 "$musku_pid" 2>/dev/null; then
			break
		fi
		sleep 1
		tries=$((tries + 1))
	done
	if [ -z "$addr" ]; then
		echo "observability smoke: musku never announced its server" >&2
		cat "$obsdir/err.log" >&2
		exit 1
	fi
	if ! fetch "http://$addr/metrics" | grep -q "^# TYPE softsku_"; then
		echo "observability smoke: /metrics has no softsku_ families" >&2
		exit 1
	fi
	if ! fetch "http://$addr/debug/decisions?n=0" | grep -q '"kind":"run_finished"'; then
		echo "observability smoke: /debug/decisions lacks the run_finished event" >&2
		exit 1
	fi
	if ! grep -q '"kind":"run_started"' "$obsdir/decisions.jsonl"; then
		echo "observability smoke: -decisions-out ledger lacks run_started" >&2
		exit 1
	fi
	echo "served /metrics and /debug/decisions for a live run ($addr)"
	kill "$musku_pid" 2>/dev/null || true
	rm -rf "$obsdir"
	trap - EXIT
else
	echo "observability smoke: skipped (neither curl nor wget available)"
fi

echo "== fleet soak smoke =="
# Two same-seed controller soaks under sustained chaos at different
# -parallel counts must both converge and write byte-identical
# decision ledgers: the self-healing control loop's determinism
# contract, end to end through drift detection, re-tuning, rollouts,
# breakers, quarantine, and degraded mode. Scaled down from
# `make soak` (240 servers, 10 epochs) to keep the check fast.
soakdir=$(mktemp -d)
go build -o "$soakdir/fleetd" ./cmd/fleetd
"$soakdir/fleetd" -chaos -chaos-seed 99 -seed 42 -servers 240 -epochs 10 \
	-parallel 2 -q -ledger-out "$soakdir/a.jsonl" >"$soakdir/a.txt"
"$soakdir/fleetd" -chaos -chaos-seed 99 -seed 42 -servers 240 -epochs 10 \
	-parallel 8 -q -ledger-out "$soakdir/b.jsonl" >"$soakdir/b.txt"
if ! cmp -s "$soakdir/a.jsonl" "$soakdir/b.jsonl"; then
	echo "fleet soak smoke: same-seed soak ledgers diverged across -parallel" >&2
	exit 1
fi
if ! grep -q '"kind":"epoch_done"' "$soakdir/a.jsonl"; then
	echo "fleet soak smoke: ledger has no epoch_done events" >&2
	exit 1
fi
sed -n 's/^state:  */fleet soak: /p' "$soakdir/a.txt"
rm -rf "$soakdir"

echo "== adaptive search smoke =="
# A tiny hill-climb tune, run twice at different -parallel counts:
# both runs must find the same soft SKU and write byte-identical
# decision ledgers (the Searcher determinism contract, end to end
# through the CLI), and the ledger must carry a clean run_finished.
srchdir=$(mktemp -d)
go build -o "$srchdir/musku" ./cmd/musku
"$srchdir/musku" -service Web -knobs thp,shp -sweep hillclimb -max-samples 1500 \
	-parallel 1 -q -decisions-out "$srchdir/a.jsonl" >"$srchdir/a.txt"
"$srchdir/musku" -service Web -knobs thp,shp -sweep hillclimb -max-samples 1500 \
	-parallel 8 -q -decisions-out "$srchdir/b.jsonl" >"$srchdir/b.txt"
if ! cmp -s "$srchdir/a.jsonl" "$srchdir/b.jsonl"; then
	echo "search smoke: same-seed hill-climb ledgers diverged across -parallel" >&2
	exit 1
fi
if ! grep -q '"kind":"run_finished"' "$srchdir/a.jsonl"; then
	echo "search smoke: hill-climb ledger never finished" >&2
	exit 1
fi
sed -n 's/^soft SKU:  */search smoke (hillclimb): /p' "$srchdir/a.txt"
rm -rf "$srchdir"

echo "== twin-pruned search smoke =="
# A twin-armed hill climb run twice: prune decisions come from the
# calibrated analytical twin (DESIGN.md §16), so both runs must compose
# the same soft SKU and write byte-identical ledgers — including the
# twin_pruned events that record every arm discarded on a prediction
# alone. One process per run, exactly like production: the ladder's
# answers depend on simcache state, which is fixed per process.
twindir=$(mktemp -d)
go build -o "$twindir/musku" ./cmd/musku
"$twindir/musku" -service Web -knobs thp,shp,corefreq -sweep hill -twin \
	-max-samples 1500 -q -decisions-out "$twindir/a.jsonl" >"$twindir/a.txt"
"$twindir/musku" -service Web -knobs thp,shp,corefreq -sweep hill -twin \
	-max-samples 1500 -q -decisions-out "$twindir/b.jsonl" >"$twindir/b.txt"
if ! cmp -s "$twindir/a.jsonl" "$twindir/b.jsonl"; then
	echo "twin smoke: same-seed twin-pruned ledgers diverged between runs" >&2
	exit 1
fi
if ! grep -q '"kind":"twin_pruned"' "$twindir/a.jsonl"; then
	echo "twin smoke: twin-armed hill climb pruned nothing" >&2
	exit 1
fi
pruned=$(grep -c '"kind":"twin_pruned"' "$twindir/a.jsonl")
sed -n "s/^soft SKU:  */twin smoke (hill, $pruned arms pruned): /p" "$twindir/a.txt"
# The same check for the paper's independent sweep (no -sweep): it
# runs through the same driver, so the ladder prunes its arms too.
"$twindir/musku" -service Web -knobs thp,shp,corefreq -twin \
	-max-samples 1500 -q -decisions-out "$twindir/c.jsonl" >"$twindir/c.txt"
"$twindir/musku" -service Web -knobs thp,shp,corefreq -twin \
	-max-samples 1500 -q -decisions-out "$twindir/d.jsonl" >"$twindir/d.txt"
if ! cmp -s "$twindir/c.jsonl" "$twindir/d.jsonl"; then
	echo "twin smoke: same-seed twin-pruned independent ledgers diverged between runs" >&2
	exit 1
fi
if ! grep -q '"kind":"twin_pruned"' "$twindir/c.jsonl"; then
	echo "twin smoke: twin-armed independent sweep pruned nothing" >&2
	exit 1
fi
pruned=$(grep -c '"kind":"twin_pruned"' "$twindir/c.jsonl")
sed -n "s/^soft SKU:  */twin smoke (independent, $pruned arms pruned): /p" "$twindir/c.txt"
rm -rf "$twindir"

echo "== skutrace replay smoke =="
# Counterfactual replay straight off a recorded ledger: re-judge a
# mips-objective run under p99 without re-running the simulator.
repdir=$(mktemp -d)
go run ./cmd/musku -service Web -knobs thp,shp -max-samples 1500 -q \
	-decisions-out "$repdir/run.jsonl" >/dev/null
replay=$(go run ./cmd/skutrace replay -metric p99 "$repdir/run.jsonl" || true)
if ! echo "$replay" | grep -q "replayed p99"; then
	echo "skutrace smoke: replay produced no p99 report" >&2
	echo "$replay" >&2
	rm -rf "$repdir"
	exit 1
fi
echo "$replay" | head -2
rm -rf "$repdir"

echo "== paper suite smoke =="
# cmd/characterize is the one front end of the paper's tables and
# figures (`-tuning -ablations` prints all of them); its items list is
# the only registry. One cheap item must render, and an unknown key
# must fail rather than print nothing.
paper=$(go run ./cmd/characterize -only fig5)
if ! echo "$paper" | grep -q "^== Fig 5"; then
	echo "paper suite smoke: -only fig5 printed no Fig 5 table" >&2
	echo "$paper" >&2
	exit 1
fi
if go run ./cmd/characterize -only nosuch >/dev/null 2>&1; then
	echo "paper suite smoke: -only nosuch exited zero" >&2
	exit 1
fi
echo "$paper" | head -1

echo "check: all green"
