.PHONY: all build check test bench bench-serve fuzz-smoke tune-smoke ci clean

all: build

build:
	dune build

check:
	dune build @check

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Daemon load generator: concurrent clients over a Unix socket against
# an in-process hlod, latency percentiles + throughput + cache/admission
# behaviour (BENCH_pr7.json).  Exits nonzero on any failed request or
# on rejections outside the saturation scenario.
bench-serve:
	dune exec bench/bench_serve.exe

# Fixed-seed differential fuzz: corpus + random programs through the
# semantic oracle for ~30s, then a second campaign pinned to region
# mode (every case exercises the outline-then-inline path).  Nonzero
# exit on any mismatch or crash; repros (bucketed, reduced) land under
# _build/fuzz/.
fuzz-smoke:
	dune exec bin/hlo_fuzz.exe -- --seed 1 --iters 400 --time-budget 30 \
	  --out _build/fuzz
	dune exec bin/hlo_fuzz.exe -- --seed 2 --iters 200 --time-budget 30 \
	  --inline-mode region --out _build/fuzz-region

# Policy tuner smoke gate: tiny fixed-seed search on two benchmarks
# (train input), run once sequentially and once with two candidate
# domains; the JSON results must be bit-identical (the tuner's
# determinism contract, and the gate for its parallel map), and every
# scored candidate is oracle-gated by construction.  Winning policies
# land under _build/tune_policies/ for hloc --policy.
tune-smoke:
	dune build bin/hlo_tune.exe
	_build/default/bin/hlo_tune.exe --bench 026.compress --bench 099.go \
	  --samples 4 --rounds 1 --mutations 2 --stale-rounds 1 --input train \
	  --jobs 1 --json _build/tune_smoke_a.json --policies _build/tune_policies
	_build/default/bin/hlo_tune.exe --bench 026.compress --bench 099.go \
	  --samples 4 --rounds 1 --mutations 2 --stale-rounds 1 --input train \
	  --jobs 2 --json _build/tune_smoke_b.json > /dev/null
	cmp _build/tune_smoke_a.json _build/tune_smoke_b.json

ci:
	./ci.sh

clean:
	dune clean
