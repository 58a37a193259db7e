.PHONY: all build test fmt check bench-baseline bench-compare scaling-compare causal-smoke ledger-smoke chaos clean

all: build

build:
	dune build

test:
	dune runtest

# dune-file formatting only: ocamlformat is not part of the toolchain
# (see dune-project), so @fmt checks the build metadata
fmt:
	dune build @fmt

# chaos smoke: a short randomized fault-injection sweep (fixed seed, so
# it is deterministic) plus the harness self-test against a planted bug
chaos:
	dune exec bin/turquois_lab.exe -- chaos --runs 25 --seed 42 --quiet
	dune exec bin/turquois_lab.exe -- chaos --runs 3 --seed 7 --broken-machine --quiet > /dev/null 2>&1; \
	  test $$? -eq 1 || { echo "chaos self-test failed: planted bug not detected"; exit 1; }

# causal smoke: export a traced sigma-edge run and make sure the causal
# analyzer reconstructs tagged sends from it end to end
# (--require-causal exits 1 when the trace has no tagged sends, so the
# gate reads the exit code instead of grepping the report text)
causal-smoke:
	dune exec bin/turquois_lab.exe -- run -n 8 --divergent --sigma-edge \
	  --trace-json /tmp/turquois_causal_smoke.jsonl > /dev/null
	dune exec bin/turquois_lab.exe -- analyze /tmp/turquois_causal_smoke.jsonl \
	  --causal --timeline --require-causal > /dev/null \
	  || { echo "causal smoke failed: no tagged sends in the trace"; exit 1; }
	rm -f /tmp/turquois_causal_smoke.jsonl

# ledger smoke: every benchmark workload on quick inputs, traced and
# untraced, with the ledger's agreement, liveness and repeat-identity
# checks (a few seconds), so an engine change that breaks a workload
# fails here rather than in a benchmark run
ledger-smoke:
	dune build @perfledger/smoke

# the gate a PR must pass: formatting, a warning-clean build, all tests
# (including the observer-only equivalence table in test/equiv.ml:
# -j, profiling, tracing, fresh keys and compact off against plain
# runs), the chaos smoke sweep, the causal-trace smoke, the ledger
# smoke, the perf regression gate and the scaling gate
check: fmt build test chaos causal-smoke ledger-smoke bench-compare scaling-compare

# regenerate the committed regression-gate baseline (run on the machine
# that will run bench-compare; wall-clock sections are host-dependent)
bench-baseline:
	dune exec bench/main.exe -- --baseline-out BENCH_baseline.json

# perf regression gate: re-run the gate grid with the baseline's seed
# and diff it against the committed baseline. The wall-clock bound is
# deliberately generous (+300%) — wall clock on shared CI boxes is
# noisy; the deterministic airtime section still catches any behavioral
# drift exactly
bench-compare:
	dune exec bench/main.exe -- --compare BENCH_baseline.json

# scaling gate: re-run the sweep recorded in BENCH_scaling.json with its
# own sizes, caps and seed. Every field must match exactly except the
# allocation words, read per domain, which fail only on growth beyond
# +50%. Re-record with
#   dune exec bench/main.exe -- --scaling-out BENCH_scaling.json -j 1
scaling-compare:
	dune exec bench/main.exe -- --compare BENCH_scaling.json

clean:
	dune clean
