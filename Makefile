GO ?= go

.PHONY: all build build-arm64 test test-short test-nosimd test-allocs benchmark-test coalescer-stress fuzz-smoke race vet fmt-check serve-stats stream-e2e retrain-e2e replica-e2e cluster-e2e ci

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

# coalescer-stress repeats the coalescer's load tests twenty times under
# the race detector. They build their backlog with a held flusher
# (internal/testgate), not with the clock, so batch and spill counts are
# exact; a single flaky pass here means a timing assumption crept back in.
coalescer-stress:
	$(GO) test -race -count=20 \
		-run 'TestCoalescer|TestAssessCoalescedMatchesSequential|TestReplicaSpillUnderLoad' ./pkg/serve/

# fuzz-smoke runs every Fuzz* target of the four packages that decode
# outside bytes or promise another encoder's bytes — the JSON codec
# (pkg/serve), the decimal→float64 kernel under it (internal/decfloat), the
# verdict store's segment reader and frame encoder (pkg/verdictstore), and
# the tree gob decoder whose output the unchecked tree walks index by
# (internal/ml/tree) — for FUZZTIME each. Plain `go test` only replays their seed corpora; this
# is what lets the differential oracles (encoding/json, strconv.ParseFloat)
# look at inputs nobody wrote down. `go test -fuzz` takes one target and
# one package per run, hence the loop. A failure leaves its input under the
# package's testdata/fuzz/<target>/ — commit it with the fix.
FUZZTIME ?= 15s
fuzz-smoke:
	@set -e; for pkg in ./pkg/serve ./internal/decfloat ./pkg/verdictstore ./internal/ml/tree; do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== fuzz $$pkg $$f ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# race runs the concurrency-heavy packages (batched assessment, request
# coalescing, the verdict store's appends against its group-commit
# flusher, the dispatched kernels and their tree consumers, and the
# ensemble, whose members train in parallel goroutines, each tree with a
# builder scratch of its own) under the race detector, then the kernel
# consumers again with SIMD forced off so both dispatch arms get race
# coverage.
race:
	$(GO) test -race ./pkg/detector/ ./pkg/serve/ ./pkg/verdictstore/ ./cmd/trusthmdd/ ./pkg/linalg/... ./internal/ml/tree/ ./internal/ensemble/
	TRUSTHMD_NOSIMD=1 $(GO) test -race ./pkg/detector/ ./pkg/linalg/... ./internal/ml/tree/

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# stream-e2e is the streaming + hot-swap smoke: train a tiny model, boot
# the daemon stack, stream raw DVFS states as NDJSON, hot-swap the shard
# through POST /v1/models mid-service, and assert post-swap assessments
# are element-wise identical to direct Online.Push on the new model —
# under the race detector, since swap-vs-stream is exactly where races
# would hide.
stream-e2e:
	$(GO) test -race -count=1 -v \
		-run 'TestStreamE2EHotSwap|TestWatchHotSwapsOnMtime' ./cmd/trusthmdd/
	$(GO) test -race -count=1 \
		-run 'TestStreamMatchesOnlinePush|TestSwapUnderLoadIsLossless|TestStreamSessionPinsVersion' ./pkg/serve/

# retrain-e2e is the closed-loop smoke: boot the daemon stack with the
# verdict store tapping every served verdict, inject drift (a device
# replaying the zero-day split), and assert the RetrainController's
# background retrain hot-swaps the fleet with zero lost requests — under
# the race detector, since retrain-vs-serve is exactly where races would
# hide. The final /stats snapshot (verdict-store occupancy included) is
# written to retrain-stats.json; CI uploads it as a build artifact.
retrain-e2e:
	TRUSTHMD_RETRAIN_STATS_OUT=$(CURDIR)/retrain-stats.json \
		$(GO) test -race -count=1 -v -run 'TestRetrainE2EClosedLoop' ./cmd/trusthmdd/
	$(GO) test -race -count=1 \
		-run 'TestRetrainControllerClosedLoop|TestVerdictTapMatchesResponses|TestStatsClosedLoopCounters' ./pkg/serve/

# replica-e2e is the replication + admission-control smoke: sustained
# bursty load against a 3-replica group, hot-swapping the whole group
# mid-run, asserting zero lost requests, spilled responses element-wise
# identical to home-replica responses, and sibling replicas carrying a
# real share of a single-device burst — under the race detector, since
# spill-vs-swap is exactly where races would hide.
replica-e2e:
	$(GO) test -race -count=1 -v -run 'TestReplicaE2E' ./cmd/trusthmdd/
	$(GO) test -race -count=1 \
		-run 'TestReplicaSpillUnderLoad|TestReplicaGroupSwapUnderLoadLossless|TestReplicaGroupShape|TestAssessShedsWithRetryAfter|TestBatchShedsWithRetryAfter|TestStatsReplicaFields|TestCoalescerShedDepth|TestCoalescerEarlyFlush' ./pkg/serve/
	$(GO) test -race -count=1 -run 'TestClosedLoopReplicas' ./cmd/hmdbench/

# cluster-e2e is the fleet smoke: boot a three-node cluster over loopback
# HTTP, drive bursty load through every entry point while a fleet-wide
# two-phase hot swap lands, then SIGKILL-equivalently drop a non-coordinator
# node mid-stream and a coordinator outright — asserting zero lost requests,
# element-wise identical verdicts after session replay onto the ring
# successor, and promotion of a new coordinator — under the race detector,
# since membership-vs-forwarding is exactly where races would hide.
cluster-e2e:
	$(GO) test -race -count=1 -v -run 'TestCluster' ./pkg/cluster/
	$(GO) test -race -count=1 -run 'TestMembership|TestOwnership|TestCatalog' ./pkg/cluster/
	$(GO) test -race -count=1 ./pkg/cluster/ring/
	$(GO) test -race -count=1 -run 'TestClusterFlags' ./cmd/trusthmdd/
	$(GO) test -race -count=1 -run 'TestPostWindowRetries|TestHTTPLoopSmoke|TestParseRetryAfter' ./cmd/hmdbench/

# serve-stats replays the serve-layer cross-request cache e2e and writes
# the final /stats snapshot (cache hit/miss counters included) to
# serve-cache-stats.json; CI uploads it as a build artifact.
serve-stats:
	TRUSTHMD_SERVE_STATS_OUT=$(CURDIR)/serve-cache-stats.json \
		$(GO) test -run TestServeCacheHitsAreIdentical -count=1 ./pkg/serve/

ci: build build-arm64 vet fmt-check test test-nosimd benchmark-test coalescer-stress fuzz-smoke
