# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test bench bench-smoke trace-smoke fuzz-smoke replay-smoke \
	json-smoke serve-smoke load-smoke load-smoke-workers store-smoke \
	memo-smoke spec-smoke serve clean

all: build

build:
	dune build @all

test:
	dune runtest

# Full regeneration of every table and figure.
bench:
	dune exec bench/main.exe -- all

# Quick end-to-end check of the parallel experiment engine — two
# domains, one macro figure, one static table — plus the perf gate:
# replay must beat execute on median totals over three saved fig12
# sweeps per engine (--assert-replay-dominates).
bench-smoke:
	dune build @bench-smoke

# End-to-end check of the telemetry sinks: trace one kernel with the
# JSONL and Chrome exporters and validate that both outputs parse.
trace-smoke:
	dune build @trace-smoke

# Differential-oracle fuzz, smoke slice: 200 fixed-seed programs over
# the full (model x issue x connect) grid, shrunk reports on failure.
fuzz-smoke:
	dune build @fuzz-smoke

# Trace-replay engine check: figure tables must be byte-identical
# between --engine execute, auto and replay, at any jobs count.
replay-smoke:
	dune build @replay-smoke

# Stdout purity of the --json modes: the captured output must be one
# JSON document, nothing else (narration belongs on stderr).
json-smoke:
	dune build @json-smoke

# End-to-end check of `rcc serve`: /run byte-identical to
# `rcc run --json`, warm trace-cache replay on the second identical
# request, graceful SIGTERM drain, and a /metrics scrape that
# validates as Prometheus text exposition (see DESIGN.md sections
# 15 and 16).
serve-smoke:
	dune build @serve-smoke

# Load smoke: loadgen against a spawned ephemeral server at a gentle
# rate, --strict — zero 5xx and client/server latency-quantile
# agreement (see DESIGN.md section 16).
load-smoke:
	dune build @load-smoke

# Prefork variant: loadgen against `rcc serve --workers 2` sharing a
# trace store; --strict minus the quantile cross-check, which is
# per-process under prefork (see DESIGN.md section 17).
load-smoke-workers:
	dune build @load-smoke-workers

# Store smoke: two sequential server processes on one --store DIR; the
# second must replay its first /run from disk and report store hits on
# /metrics (the cold-process warm-store contract, DESIGN.md
# section 17).
store-smoke:
	dune build @store-smoke

# Superblock timing-memo smoke: warm store-backed replay of fig7 +
# ablation-unroll must hit the memo at >= 80% and produce tables
# byte-identical to --engine execute (DESIGN.md section 18).
memo-smoke:
	dune build @memo-smoke

# Spec smoke: the user-submitted-kernel front door — POST /compile and
# /run byte-identical to `rcc compile --json` / `rcc run --spec
# --json`, warm replay on the second run, over-budget and malformed
# documents shed 413/400 (DESIGN.md section 19).
spec-smoke:
	dune build @spec-smoke

# Run the simulation service locally.
serve:
	dune exec bin/rcc.exe -- serve --port 8080 --jobs 4

clean:
	dune clean
