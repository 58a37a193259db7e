.PHONY: all build test fmt check bench bench-baseline bench-compare causal-smoke pool-smoke compact-smoke modelcheck-smoke workload-smoke scale-smoke chaos clean

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

# pool smoke: a tiny sweep at -j 2 — catches domain-unsafe global state
# that the (mostly -j 1) unit tests would miss
pool-smoke:
	dune exec bin/turquois_lab.exe -- sigma --size 4 --runs 2 --rounds 40 -j 2 > /dev/null

# compact smoke: the wire-compression contract — every scenario must
# reach the same decisions with delta-compressed justification bundles
# off and on (exits non-zero otherwise), and a small sweep that includes
# the compact Turquois hot path must stay bit-identical at -j 1 / -j 2
compact-smoke:
	dune exec bin/turquois_lab.exe -- compactcheck --quiet
	dune exec bin/turquois_lab.exe -- scaling --sizes 16 --turquois-cap 16 \
	  --radio-cap 16 -j 1 > /tmp/turquois_compact_j1.txt
	dune exec bin/turquois_lab.exe -- scaling --sizes 16 --turquois-cap 16 \
	  --radio-cap 16 -j 2 > /tmp/turquois_compact_j2.txt
	cmp /tmp/turquois_compact_j1.txt /tmp/turquois_compact_j2.txt \
	  || { echo "compact smoke failed: -j 1 and -j 2 sweeps diverged"; exit 1; }
	rm -f /tmp/turquois_compact_j1.txt /tmp/turquois_compact_j2.txt

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

# model-checker smoke: the exhaustive n=4 walk over two rounds must be
# bit-identical at -j 1 and -j 2 (stats included — the printout carries
# no timing), and its extracted worst-case schedule must replay (run
# --replay exits 0 iff the artifact reproduces its recorded outcome)
modelcheck-smoke:
	dune exec bin/turquois_lab.exe -- modelcheck -n 4 --rounds 2 --quiet -j 1 \
	  --out /tmp/turquois_mc_smoke.json > /tmp/turquois_mc_j1.txt
	dune exec bin/turquois_lab.exe -- modelcheck -n 4 --rounds 2 --quiet -j 2 \
	  --out /tmp/turquois_mc_smoke.json > /tmp/turquois_mc_j2.txt
	cmp /tmp/turquois_mc_j1.txt /tmp/turquois_mc_j2.txt \
	  || { echo "modelcheck smoke failed: -j 1 and -j 2 walks diverged"; exit 1; }
	dune exec bin/turquois_lab.exe -- run --replay /tmp/turquois_mc_smoke.json \
	  > /dev/null \
	  || { echo "modelcheck smoke failed: worst-case schedule did not replay"; exit 1; }
	rm -f /tmp/turquois_mc_smoke.json /tmp/turquois_mc_j1.txt /tmp/turquois_mc_j2.txt

# workload smoke: a small consensus-service sweep must be bit-identical
# at -j 1 and -j 2 (open-loop arrivals, batching and straggler catch-up
# all run through the deterministic engine, so any divergence is a
# determinism bug in the new code paths)
workload-smoke:
	dune exec bin/turquois_lab.exe -- workload --load 20,60 -r 2 -j 1 \
	  > /tmp/turquois_wl_j1.txt
	dune exec bin/turquois_lab.exe -- workload --load 20,60 -r 2 -j 2 \
	  > /tmp/turquois_wl_j2.txt
	cmp /tmp/turquois_wl_j1.txt /tmp/turquois_wl_j2.txt \
	  || { echo "workload smoke failed: -j 1 and -j 2 sweeps diverged"; exit 1; }
	rm -f /tmp/turquois_wl_j1.txt /tmp/turquois_wl_j2.txt

# scale smoke: the n=64 sampled-consensus scaling point must be
# bit-identical at -j 1 and -j 2 (the rendered table excludes the one
# host-dependent field, so cmp is exact)
scale-smoke:
	dune exec bin/turquois_lab.exe -- scaling --sizes 64 --turquois-cap 0 -j 1 \
	  > /tmp/turquois_scale_j1.txt
	dune exec bin/turquois_lab.exe -- scaling --sizes 64 --turquois-cap 0 -j 2 \
	  > /tmp/turquois_scale_j2.txt
	cmp /tmp/turquois_scale_j1.txt /tmp/turquois_scale_j2.txt \
	  || { echo "scale smoke failed: -j 1 and -j 2 sweeps diverged"; exit 1; }
	rm -f /tmp/turquois_scale_j1.txt /tmp/turquois_scale_j2.txt

# the gate a PR must pass: formatting, a warning-clean build, all tests,
# the chaos smoke sweep, the parallel-pool smoke, the compact-wire
# smoke, the causal-trace smoke, the model-checker smoke, the workload
# smoke, the scaling smoke and the perf regression gate
check: fmt build test chaos pool-smoke compact-smoke causal-smoke modelcheck-smoke workload-smoke scale-smoke bench-compare

bench:
	dune exec bench/main.exe -- --quick

# regenerate the committed regression-gate baseline (run on the machine
# that will run bench-compare; wall-clock sections are host-dependent)
bench-baseline:
	dune exec bench/main.exe -- --baseline-out BENCH_baseline.json

# perf regression gate: re-run the gate grid and diff it against the
# committed baseline. The threshold is deliberately generous (+300%) —
# wall clock on shared CI boxes is noisy; the deterministic airtime
# section still catches any behavioral drift exactly
bench-compare:
	dune exec bench/main.exe -- --compare BENCH_baseline.json --threshold 3.0

clean:
	dune clean
