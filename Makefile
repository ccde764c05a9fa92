GO ?= go

.PHONY: ci test race fuzz-short chaos scale bench bench-gate golden-update

# ci is the full gate run by .github/workflows/ci.yml.
ci:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race -timeout 20m ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) test -race -timeout 20m ./...

fuzz-short:
	$(GO) test -fuzz=FuzzDecodeRoundTrip -fuzztime=30s ./internal/isa
	$(GO) test -fuzz=FuzzImageParse -fuzztime=30s ./internal/bin
	$(GO) test -fuzz=FuzzScopeTableParse -fuzztime=30s ./internal/seh
	$(GO) test -fuzz=FuzzCacheEntryDecode -fuzztime=30s ./internal/cas
	$(GO) test -fuzz=FuzzGenDLL -fuzztime=30s ./internal/targets
	$(GO) test -fuzz=FuzzGenServer -fuzztime=30s ./internal/targets
	$(GO) test -fuzz=FuzzRateDetector -fuzztime=30s ./internal/defense

# chaos runs the full paper-scale fault-injection sweep under the race
# detector; tier-1 (`make test`/`make race`) only runs the trimmed sweep.
chaos:
	CHAOS_SCALE=paper $(GO) test -race -run 'TestChaos|TestStageTimeout' -v .

# scale runs the full large-scale property harness (paper corpus + 1,870
# generated DLLs, 60-server generated fleet) under the race detector;
# tier-1 runs the same properties on a trimmed generated population.
# CRASHRESIST_SCALE_N=<n> overrides the generated DLL count directly.
scale:
	CRASHRESIST_SCALE=large $(GO) test -race -run 'TestScale' -v .

# bench emits benchstat-comparable text (bench.txt — feed two of them to
# `benchstat old.txt new.txt`) and a machine-readable BENCH_PR9.json via
# tools/benchjson. BENCH_COUNT > 1 gives benchstat variance to work with.
BENCH_COUNT ?= 1
bench:
	$(GO) test -bench=. -benchtime=1x -count=$(BENCH_COUNT) ./... | tee bench.txt
	$(GO) run ./tools/benchjson < bench.txt > BENCH_PR9.json
	@echo "wrote bench.txt and BENCH_PR9.json"

# bench-gate reruns the benchmarks and fails when any ns/op regressed past
# BENCH_TOLERANCE percent against the committed baseline manifest.
BENCH_TOLERANCE ?= 200
bench-gate:
	$(GO) test -bench=. -benchtime=1x -count=1 ./... | tee bench.txt
	$(GO) run ./tools/benchjson -compare BENCH_PR9.json -tolerance $(BENCH_TOLERANCE) < bench.txt

golden-update:
	$(GO) test ./cmd/crtables -run TestGolden -update
