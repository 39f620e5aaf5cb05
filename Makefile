GO ?= go

# Third-party checkers, pinned and fetched on demand via `go run` so
# they never enter go.mod. Both need network on first use; lint-extra
# probes for that and degrades to a warning offline, while CI (which
# always has network) treats failures as hard.
STATICCHECK = honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK = golang.org/x/vuln/cmd/govulncheck@v1.1.4

.PHONY: all build test verify fmt-check lint paperlint lint-extra bench bench-report golden golden-update paper

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# fmt-check fails when a Go file is not gofmt-formatted. Analyzer
# fixtures under testdata/ are exempt: their layout is part of what the
# analyzer tests pin.
GOFMT ?= $(shell $(GO) env GOROOT)/bin/gofmt
fmt-check:
	@out=$$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.git/*' | xargs $(GOFMT) -l); \
		if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# paperlint runs the repository's own invariant analyzers (package
# twopage/internal/analysis): determinism, hotalloc (interprocedural),
# powtwo, ctxcheck, errfmt, mergecheck, keycheck, deprcheck, plus the
# stale-suppression audit. Zero tolerance: any unsuppressed diagnostic
# fails the build. deprcheck subsumes the old grep-based
# deprecation-gate target: uses of Deprecated-marked identifiers
# outside their defining package are findings, resolved by object so
# same-named current fields are untouched.
paperlint:
	$(GO) run ./cmd/paperlint ./...

# lint is the fast local loop: just the invariant analyzers.
lint: paperlint

# lint-extra layers the pinned third-party checkers on top. Offline the
# tools cannot be fetched; warn and continue so air-gapped development
# still works (CI runs them for real).
lint-extra:
	@$(GO) run $(STATICCHECK) ./... \
		|| { [ "$(CI)" = "true" ] && exit 1 \
		|| echo "warning: staticcheck unavailable or failed (offline?); CI will enforce it"; }
	@$(GO) run $(GOVULNCHECK) ./... \
		|| { [ "$(CI)" = "true" ] && exit 1 \
		|| echo "warning: govulncheck unavailable or failed (offline?); CI will enforce it"; }

# verify is the pre-merge gate: static checks (gofmt, vet, then the paperlint
# invariant suite, then the pinned external checkers), a full build,
# and the test suite under the race detector (the engine is concurrent;
# races are correctness bugs here, not style). simbench/ is a module of
# its own, so the root ./... skips it; it is vetted and built
# separately, so an API break in a package it uses fails here too.
verify:
	$(MAKE) fmt-check
	$(GO) vet ./...
	cd simbench && $(GO) vet ./...
	$(MAKE) paperlint
	$(MAKE) lint-extra
	$(GO) build ./...
	cd simbench && $(GO) build -o /dev/null ./...
	$(GO) test -race ./...

# bench runs the repository benchmark (simbench/, declared in
# BENCHMARK.json) once over each of its four workloads at seed 0:
# end-to-end host cost per reference, 20 s per workload. Each run
# prints its metrics and ends with a JSON line whose "correct" field
# reports whether every pass matched its pinned counters; a run that is
# not correct fails the target. See simbench/README.md for the metrics
# and the per-layer (--trace 1) mode.
bench:
	@for w in worm-two-walk matrix300-single tomcatv-ladder3-churn paper-suite; do \
		out=$$(bash simbench/run.sh --workload $$w --seed 0 --seconds 20 --trace 0) || exit 1; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 | grep -qF '"correct":true' || { echo "bench: $$w is not correct" >&2; exit 1; }; \
	done

# bench-report regenerates BENCH_run.json: the full experiment suite's
# run report (internal/obs schema) at a reduced scale. The counter
# sections are deterministic for a given scale, so a diff against the
# committed file shows exactly which simulation volumes an intentional
# change moved (wall_ms/parallelism are the only fields expected to
# churn).
REPORT_SCALE ?= 0.05
bench-report:
	$(GO) run ./cmd/paper -scale $(REPORT_SCALE) -stats BENCH_run.json all > /dev/null

# golden checks the rendered output of every experiment byte-for-byte
# against testdata/golden; golden-update re-blesses the corpus after an
# intentional output change.
golden:
	$(GO) test -run TestGolden -count 1 .

golden-update:
	$(GO) test -run 'TestGolden$$' -update -count 1 .

# Regenerate every paper table/figure at full scale.
paper:
	$(GO) run ./cmd/paper all
