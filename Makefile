# Convenience entry points; everything is plain dune underneath.

# Each end-to-end smoke is the dune alias of the same name; bin/dune and
# bench/dune say what each one asserts.  `make smoke` runs them all, one
# after another (bench-smoke's perf gate wants a quiet machine).
SMOKES := bench-smoke trace-smoke fuzz-smoke replay-smoke json-smoke \
	serve-smoke load-smoke load-smoke-workers store-smoke memo-smoke \
	spec-smoke

.PHONY: all build test bench smoke $(SMOKES) serve clean

all: build

build:
	dune build @all

test:
	dune runtest

# Full regeneration of every table and figure.
bench:
	dune exec bench/main.exe -- all

smoke: $(SMOKES)

$(SMOKES): %:
	dune build @$*

# Run the simulation service locally.
serve:
	dune exec bin/rcc.exe -- serve --port 8080 --jobs 4

clean:
	dune clean
