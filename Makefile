# Mirrors the CI jobs in .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test race lint bench dist-smoke serve-smoke serve-golden policy-conformance clean

all: build

build:
	$(GO) build ./...
	$(GO) build -o exegpt ./cmd/exegpt

test:
	$(GO) test ./...

# Race-detect the concurrency-critical packages: the parallel scheduler
# search, the runner engines, the parallel experiment sweep, the
# distributed-sweep fold and worker fleet (concurrent sweep workers
# sharing one profile cache), the work-stealing dispatcher (with its
# journal and the seed-driven chaos suite over all three transports)
# and the serve loop.
race:
	$(GO) test -race ./internal/core/... ./internal/runner/... ./internal/experiments/... ./internal/par/... ./internal/distsweep/... ./internal/atomicfile/... ./internal/dispatch/... ./internal/serve/...

# End-to-end distributed sweeps on one box: file-spool and HTTP
# coordinators with killed and replaced workers, forked fleets over
# both transports, a SIGKILLed journaled coordinator resumed from its
# journal, and a self-healing supervised fleet. Every scenario must
# reproduce the single-process sweep's JSON artifact and printed table
# byte for byte; the scenarios live in scripts/dist_smoke.sh.
dist-smoke: build
	./scripts/dist_smoke.sh

# Online-serving smoke: run a deterministic serving scenario — a rate
# step that fires one schedule switch — and require the JSON artifact
# to be byte-identical to the committed golden. A deliberate behavior
# change regenerates the golden with `make serve-golden`.
SERVE_DIR := .serve-demo
SERVE_FLAGS := -quick -arrival step -rate 1 -step-at 40 -step-factor 8 \
	-duration 120 -slo 5 -window 5 -switch-cost 2 -check-every 2
serve-smoke: build
	rm -rf $(SERVE_DIR) && mkdir -p $(SERVE_DIR)
	./exegpt serve $(SERVE_FLAGS) -json $(SERVE_DIR)/serve.json > /dev/null
	cmp GOLDEN_serve.json $(SERVE_DIR)/serve.json
	@echo "serve artifact == committed golden (byte-identical)"

serve-golden: build
	./exegpt serve $(SERVE_FLAGS) -json GOLDEN_serve.json > /dev/null

# Execution-policy seam: run the per-family conformance suite under the
# race detector and forbid new policy-identity branches outside the
# sched registry.
policy-conformance:
	$(GO) test -race ./internal/sched/familytest/
	./scripts/policy_gate.sh

lint:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# Compare the reference and Evaluator estimate paths, steady-state and
# cold memoized search, and the sequential/parallel/multi-bound
# schedule search.
bench:
	$(GO) test -bench 'FindBest|Estimate' -run '^$$' -benchmem ./internal/core/

clean:
	rm -f exegpt
	rm -rf .dist-smoke $(SERVE_DIR)
