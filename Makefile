GO ?= go

.PHONY: ci test race fuzz-short chaos scale bench golden-update

# ci runs what .github/workflows/ci.yml's test and perfbench jobs run:
# gofmt, vet, build, tests (allocation budgets included), race and the
# perfbench module's tests. The workflow's other jobs are not mirrored here.
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
	$(GO) test -fuzz=FuzzSyscallDispatch -fuzztime=30s ./internal/kernel
	$(GO) test -fuzz=FuzzAddressSpace -fuzztime=30s ./internal/mem
	$(GO) test -fuzz=FuzzInterpreter -fuzztime=30s ./internal/vm

# chaos runs the full paper-scale fault-injection sweep under the race
# detector, and the forked classify's chaos differential in
# internal/discover; tier-1 (`make test`/`make race`) only runs the trimmed
# sweep.
chaos:
	CHAOS_SCALE=paper $(GO) test -race -run 'TestChaos|TestStageTimeout' -v . ./internal/discover

# scale runs the full large-scale property harness (paper corpus + 1,870
# generated DLLs, 60-server generated fleet) under the race detector;
# tier-1 runs the same properties on a trimmed generated population.
# CRASHRESIST_SCALE_N=<n> overrides the generated DLL count directly.
scale:
	CRASHRESIST_SCALE=large $(GO) test -race -run 'TestScale' -v .

# bench runs the paper's experiments (E1-E11, ablations A1/A2) and the
# layer microbenchmarks once each, and no tests. Wall time is perfbench's
# job (bash perfbench/run.sh); allocation budgets run in `make test`.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

golden-update:
	$(GO) test ./cmd/crtables -run TestGolden -update
