GO ?= go

.PHONY: all build build-arm64 test test-short test-nosimd test-allocs benchmark-test serve-stress fuzz-smoke race vet fmt-check ci

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
test-nosimd:
	TRUSTHMD_NOSIMD=1 $(GO) test ./...

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

# serve-stress repeats the serving layer's load tests twenty times under
# the race detector: concurrent bit-identity, swap under load, shedding at
# the in-flight cap and Close waiting out calls in flight. The ones that
# need requests in flight hold them inside the assessment
# (internal/testgate), not with the clock, so their counts are exact; a
# single flaky pass here means a timing assumption crept back in.
serve-stress:
	$(GO) test -race -count=20 \
		-run 'TestAssessCoalescedMatchesSequential|TestSwapUnderLoadIsLossless|TestFleetSwapUnderLoadLossless|TestAssessShedsWithRetryAfter|TestBatchShedsWithRetryAfter|TestFleetCloseWaitsForAssessments' ./pkg/serve/

# fuzz-smoke runs every Fuzz* target of the nine packages that decode
# outside bytes or promise another encoder's bytes — the JSON codec and
# the stream-line decoder (pkg/serve), the float64↔decimal kernels under
# it (internal/decfloat), the float and string encoders the codec and the
# store share (internal/jsonwire), the verdict store's segment reader and
# frame encoder (pkg/verdictstore), the tree gob decoder whose output the
# unchecked tree walks index by (FuzzTreeGobDecode) and the tree builder
# whose gob bytes must equal its per-node-sort reference's
# (FuzzFitMatchesReference) (internal/ml/tree), the naive-Bayes and kNN
# member gob decoders, whose models must predict without a fault on any
# row as wide as they report (FuzzMemberGobDecode in internal/ml/bayes and
# internal/ml/knn), the stream-state resume a cluster peer's push feeds
# (pkg/detector), and the drop-line parser of `trusthmd push`, whose CSV
# drops are outside bytes (cmd/trusthmd) — for FUZZTIME each.
# Plain `go test` only replays their seed corpora; this is what lets the
# differential oracles (encoding/json, strconv, the reference builder)
# look at inputs nobody wrote down. `go test -fuzz` takes one target and one package per run,
# hence the loop. A failure leaves its input under the package's
# testdata/fuzz/<target>/ — commit it with the fix.
FUZZTIME ?= 15s
fuzz-smoke:
	@set -e; for pkg in ./pkg/serve ./internal/decfloat ./internal/jsonwire ./pkg/verdictstore ./internal/ml/tree ./internal/ml/bayes ./internal/ml/knn ./pkg/detector ./cmd/trusthmd; do \
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
# (pkg/cluster/...), hmdbench's HTTP loop, the verdict store's appends
# against its group-commit flusher, the dispatched kernels and their tree
# consumers, and the ensemble, whose members train in parallel goroutines,
# each tree with a builder scratch of its own. Then the kernel consumers
# again with SIMD forced off so both dispatch arms get race coverage.
# TestRetrainE2EClosedLoop writes its final /stats snapshot (verdict-store
# occupancy included) to retrain-stats.json; CI uploads it as an artifact.
race:
	TRUSTHMD_RETRAIN_STATS_OUT=$(CURDIR)/retrain-stats.json \
		$(GO) test -race ./pkg/detector/ ./pkg/serve/ ./pkg/cluster/... ./pkg/verdictstore/ ./cmd/trusthmdd/ ./cmd/hmdbench/ ./pkg/linalg/... ./internal/ml/tree/ ./internal/ensemble/
	TRUSTHMD_NOSIMD=1 $(GO) test -race ./pkg/detector/ ./pkg/linalg/... ./internal/ml/tree/

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci: build build-arm64 vet fmt-check test test-nosimd test-allocs benchmark-test race serve-stress fuzz-smoke
