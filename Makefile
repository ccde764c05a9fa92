GO ?= go

.PHONY: ci test race fuzz-short chaos scale bench hostprof golden-update

# ci runs what .github/workflows/ci.yml's test and perfbench jobs run:
# gofmt, vet, build, tests (allocation budgets included), race (with the
# fork-sharing tests ten times) and the perfbench module's tests. The workflow's other jobs are not mirrored here.
ci:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(MAKE) race
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) build ./...
	$(GO) test ./...

# FORKSHARE holds the tests of state several goroutines fork at once; race
# runs their Concurrent tests ten times, since one run seldom shows a race.
# crtables' paper-scale suites sit near the default 10m package timeout
# under -race on shared runners, so race gives them headroom. CI's test job
# runs this target.
FORKSHARE = ./internal/mem ./internal/vm ./internal/targets ./internal/fuzz

race:
	$(GO) test -race -timeout 20m ./...
	$(GO) test -race -count=10 -run Concurrent $(FORKSHARE)

fuzz-short:
	$(GO) test -fuzz=FuzzDecodeRoundTrip -fuzztime=30s ./internal/isa
	$(GO) test -fuzz=FuzzAssemble -fuzztime=30s ./internal/asm
	$(GO) test -fuzz=FuzzImageParse -fuzztime=30s ./internal/bin
	$(GO) test -fuzz=FuzzScopeTableParse -fuzztime=30s ./internal/seh
	$(GO) test -fuzz=FuzzCacheEntryDecode -fuzztime=30s ./internal/cas
	$(GO) test -fuzz=FuzzGenDLL -fuzztime=30s ./internal/targets
	$(GO) test -fuzz=FuzzGenServer -fuzztime=30s ./internal/targets
	$(GO) test -fuzz=FuzzRateDetector -fuzztime=30s ./internal/defense
	$(GO) test -fuzz=FuzzSyscallDispatch -fuzztime=30s ./internal/kernel
	$(GO) test -fuzz=FuzzAddressSpace -fuzztime=30s ./internal/mem
	$(GO) test -fuzz=FuzzTaint -fuzztime=30s ./internal/taint
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

# hostprof profiles the host CPU time and allocations of BenchmarkTableI,
# BenchmarkAPIFunnel and BenchmarkTableIII, the in-tree counterparts of
# perfbench's table1, funnel and seh workloads, and prints the top of each
# profile. Profiles and the test binary they name go to hostprof/; read one
# further with `go tool pprof hostprof/crashresist.test hostprof/<b>.cpu.pprof`.
hostprof:
	mkdir -p hostprof
	for b in TableI APIFunnel TableIII; do \
		$(GO) test -run '^$$' -bench "^Benchmark$$b$$" -benchtime 10x \
			-cpuprofile hostprof/$$b.cpu.pprof -memprofile hostprof/$$b.mem.pprof \
			-o hostprof/crashresist.test . || exit 1; \
		echo "== $$b: cpu"; \
		$(GO) tool pprof -top -nodecount 40 hostprof/crashresist.test hostprof/$$b.cpu.pprof || exit 1; \
		echo "== $$b: allocated bytes"; \
		$(GO) tool pprof -top -nodecount 25 -sample_index alloc_space hostprof/crashresist.test hostprof/$$b.mem.pprof || exit 1; \
	done

golden-update:
	$(GO) test ./cmd/crtables -run TestGolden -update
