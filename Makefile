GO ?= go

.PHONY: all build build-arm64 test test-short test-nosimd test-allocs benchmark-test paper serve-stress fuzz-smoke race vet fmt-check ci

all: build

build:
	$(GO) build ./...

# build-arm64 cross-compiles the whole tree for linux/arm64, proving the
# non-amd64 kernel fallback path (pkg/linalg/kernel dispatch_other.go)
# actually compiles — the assembly files are amd64-only by build tag.
build-arm64:
	GOOS=linux GOARCH=arm64 $(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# test-nosimd re-runs the full suite with the vectorized kernels disabled
# (generic pure-Go implementations forced via TRUSTHMD_NOSIMD), proving
# every result the tests pin is reached identically without SIMD — the
# bit-identical contract of pkg/linalg/kernel, exercised end to end.
# -count=1 because the kernel package reads TRUSTHMD_NOSIMD in init, before
# the test cache starts recording environment reads: a cached pass would
# replay SIMD results. The digest and golden tests (datasets, models,
# experiment renderings, response bodies) and the pinned examples then run
# again on one core: forest members go to training workers dynamically,
# and none of those bytes may depend on how many there are.
test-nosimd:
	TRUSTHMD_NOSIMD=1 $(GO) test -count=1 ./...
	GOMAXPROCS=1 $(GO) test -count=1 -run 'Digests|Golden|Example' ./...

# test-allocs re-runs the zero-allocation contract of the inference hot
# path (testing.AllocsPerRun assertions) uncached, race-free — the race
# detector's instrumentation would make the counts meaningless. The test
# CI job runs it, so an allocation regression fails the build even when it
# is too small to move any timing.
test-allocs:
	$(GO) test -run TestAllocs -count=1 ./...

# benchmark-test vets and tests the repo benchmark (benchmark/, a Go module
# of its own that imports internal/hmd and pkg/detector through a replace
# directive). Root `go build ./...` and `go test ./...` do not reach it, so
# an API the benchmark calls can be deleted without the root build
# noticing; this target is what notices.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# paper regenerates the paper's whole evaluation at its own scale
# (`hmdbench -exp all -scale 1`, about 35 s on 2 vCPUs) and diffs it
# against cmd/hmdbench/testdata/golden/scale1.txt. The golden renderings
# `go test` checks are taken at Scale 0.02, where a change can still move
# a number of the paper's that no test sees; this is the check at the
# scale the paper reports. A change that means to move such a number
# rewrites the file and says why in CHANGES.md.
paper:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/hmdbench" ./cmd/hmdbench; \
	"$$dir/hmdbench" -exp all -scale 1 > "$$dir/scale1.txt"; \
	diff -u cmd/hmdbench/testdata/golden/scale1.txt "$$dir/scale1.txt"

# serve-stress repeats the serving layer's load tests twenty times under
# the race detector: concurrent bit-identity, swap under load, shedding at
# the in-flight cap and Close waiting out calls in flight. The ones that
# need requests in flight hold them inside the assessment
# (internal/testgate), not with the clock, so their counts are exact; a
# single flaky pass here means a timing assumption crept back in. The
# retrain loop rides along: its replay proof (a live run and an offline
# fold of the same store end on the same model bytes) and its closed
# loop, whose held case reads /stats while a round is parked in the
# fleet's prepare hook. The verdict store's appends and stats must return
# while a Query is parked mid-read, since Query reads outside the lock.
serve-stress:
	$(GO) test -race -count=20 \
		-run 'TestAssessConcurrentMatchesSequential|TestSwapUnderLoadIsLossless|TestFleetSwapUnderLoadLossless|TestAssessShedsWithRetryAfter|TestBatchShedsWithRetryAfter|TestFleetCloseWaitsForAssessments|TestFleetCloseWaitsForBatches|TestRetrainReplay|TestRetrainControllerClosedLoop' ./pkg/serve/
	$(GO) test -race -count=20 -run 'TestQueryReadsOutsideLock' ./pkg/verdictstore/

# fuzz-smoke runs every Fuzz* target in the module for FUZZTIME each: the
# packages come from `go list ./...` and their targets from `go test -list`,
# so a new target joins without an edit here. Plain `go test` only replays
# the seed corpora; this lets the differential oracles (encoding/json,
# strconv, the reference tree builder, the generic kernels behind the SIMD
# ones) look at inputs nobody wrote down. `go test -fuzz` takes one target
# and one package per run, hence the loop. A failure leaves its input under
# the package's testdata/fuzz/<target>/ — commit it with the fix.
FUZZTIME ?= 15s
fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== fuzz $$pkg $$f ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# race runs every package with goroutines of its own under the race
# detector, whole packages, nothing selected by name: batched assessment,
# concurrent inline assessment, streams against hot swaps and the
# closed retrain loop (pkg/serve and cmd/trusthmdd, the daemon's e2e tests
# included), the three-node cluster e2e with its node kills
# (pkg/cluster/...), the verdict store's appends against its group-commit
# flusher, the dispatched kernels and their tree consumers, the ensemble,
# whose members train on a pool of goroutines that read one shared
# presort and each reuse a builder scratch of their own, and the dataset
# generator (internal/gen), whose
# workers extract features while the caller keeps drawing, with the
# experiments (internal/exp) that generate their datasets through it. Then
# the kernel consumers again with SIMD forced off so both dispatch arms get
# race coverage (uncached, as in test-nosimd).
# TestRetrainE2EClosedLoop writes its final /stats snapshot (verdict-store
# occupancy included) to retrain-stats.json; CI uploads it as an artifact.
race:
	TRUSTHMD_RETRAIN_STATS_OUT=$(CURDIR)/retrain-stats.json \
		$(GO) test -race ./pkg/detector/ ./pkg/serve/ ./pkg/cluster/... ./pkg/verdictstore/ ./cmd/trusthmdd/ ./pkg/linalg/... ./internal/ml/tree/ ./internal/ensemble/ ./internal/gen/ ./internal/exp/
	TRUSTHMD_NOSIMD=1 $(GO) test -race -count=1 ./pkg/detector/ ./pkg/linalg/... ./internal/ml/tree/

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci: build build-arm64 vet fmt-check test test-nosimd test-allocs benchmark-test paper race serve-stress fuzz-smoke
