package crashresist

// Chaos harness for the fault-injection tentpole: seeded fault plans are
// swept over pipeline runs at several worker counts, asserting the
// resilience contract end to end:
//
//   - no run panics or aborts — degraded jobs are recorded, not fatal;
//   - for a fixed chaos seed the report (including the Degraded list) is
//     byte-identical at 1, 4 and 8 workers and across repeated runs;
//   - with injection off, reports are byte-identical to a plain run (the
//     goldens under cmd/crtables pin that against checked-in bytes, so
//     the clean sweeps here only run in the full chaos gate).
//
// The default `go test` run keeps the sweep small so tier-1 stays fast:
// one seed, small browser scale. `make chaos` (the dedicated CI job) sets
// CHAOS_SCALE=paper for the full paper-scale sweep with the complete seed
// set under the race detector.
//
// Reports are compared after stripping Stats: wall-clock timings and
// scheduling-dependent cache totals live there by design.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// chaosPaper selects the full paper-scale sweep (set by `make chaos`).
var chaosPaper = os.Getenv("CHAOS_SCALE") == "paper"

// chaosWorkerCounts are the fan-outs every sweep runs at.
var chaosWorkerCounts = []int{1, 4, 8}

// chaosSeedSet returns the fault-plan seeds of one sweep.
func chaosSeedSet() []int64 {
	if chaosPaper {
		return []int64{1, 2}
	}
	return []int64{1}
}

func chaosBrowserScale(t *testing.T) BrowserParams {
	if chaosPaper && !testing.Short() {
		return PaperBrowserParams()
	}
	return SmallBrowserParams()
}

// normalize strips the Stats pointer from a report and returns its
// canonical JSON, the byte-level identity used across worker counts.
func normalize(t *testing.T, report any) string {
	t.Helper()
	raw, err := json.Marshal(report)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	delete(m, "stats")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("re-marshal report: %v", err)
	}
	return string(out)
}

// sweep runs one analysis at every worker count (twice at the first count,
// to catch run-to-run nondeterminism) and asserts all normalized reports
// are identical.
func sweep(t *testing.T, name string, analyze func(workers int) (any, error)) {
	t.Helper()
	var want string
	for i, workers := range append([]int{chaosWorkerCounts[0]}, chaosWorkerCounts...) {
		rep, err := analyze(workers)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		got := normalize(t, rep)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("%s workers=%d: report differs from workers=%d baseline\n got: %.400s\nwant: %.400s",
				name, workers, chaosWorkerCounts[0], got, want)
		}
	}
}

// reportOf unwraps Run's result into its report, for harnesses that
// compare reports of any pipeline.
func reportOf(res *Result, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return res.Report(), nil
}

// TestChaosSyscallPipeline sweeps seeded fault plans over the Table I
// pipeline for every server.
func TestChaosSyscallPipeline(t *testing.T) {
	servers, err := Servers()
	if err != nil {
		t.Fatal(err)
	}
	for _, srv := range servers {
		srv := srv
		if chaosPaper {
			sweep(t, srv.Name+"/clean", func(workers int) (any, error) {
				return reportOf(Run(context.Background(), Request{Server: srv, Seed: 42, Workers: workers}))
			})
		}
		for _, seed := range chaosSeedSet() {
			seed := seed
			sweep(t, fmt.Sprintf("%s/chaos-%d", srv.Name, seed), func(workers int) (any, error) {
				return reportOf(Run(context.Background(), Request{Server: srv, Seed: 42, Workers: workers, ChaosSeed: seed}))
			})
		}
	}
}

// TestChaosSEHPipeline sweeps seeded fault plans over the Tables II/III
// pipeline.
func TestChaosSEHPipeline(t *testing.T) {
	br, err := IE(chaosBrowserScale(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range chaosSeedSet() {
		seed := seed
		sweep(t, fmt.Sprintf("seh/chaos-%d", seed), func(workers int) (any, error) {
			return reportOf(Run(context.Background(), Request{Browser: br, Seed: 42, Workers: workers, ChaosSeed: seed}))
		})
	}
	if chaosPaper {
		sweep(t, "seh/clean", func(workers int) (any, error) {
			return reportOf(Run(context.Background(), Request{Browser: br, Seed: 42, Workers: workers}))
		})
	}
}

// TestChaosAPIPipeline sweeps seeded fault plans over the §V-B funnel.
func TestChaosAPIPipeline(t *testing.T) {
	br, err := IE(chaosBrowserScale(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range chaosSeedSet() {
		seed := seed
		sweep(t, fmt.Sprintf("api/chaos-%d", seed), func(workers int) (any, error) {
			return reportOf(Run(context.Background(), Request{Pipeline: PipelineAPI, Browser: br, Seed: 42, Workers: workers, ChaosSeed: seed}))
		})
	}
	if chaosPaper {
		sweep(t, "api/clean", func(workers int) (any, error) {
			return reportOf(Run(context.Background(), Request{Pipeline: PipelineAPI, Browser: br, Seed: 42, Workers: workers}))
		})
	}
}

// TestChaosCountersSurface checks that a chaos run accounts for its
// injections in RunStats: with the high-rate pool site of the default
// plan, the validation fan-out draws at least one fault, and every
// degraded record corresponds to a counted degradation.
func TestChaosCountersSurface(t *testing.T) {
	servers, err := Servers()
	if err != nil {
		t.Fatal(err)
	}
	var injected, degraded uint64
	var records int
	for _, seed := range chaosSeedSet() {
		for _, srv := range servers {
			res, err := Run(context.Background(), Request{Server: srv, Seed: 42, Workers: 4, ChaosSeed: seed})
			if err != nil {
				t.Fatalf("%s: %v", srv.Name, err)
			}
			rep := res.Syscall
			if rep.Stats == nil {
				t.Fatalf("%s: no RunStats on chaos run", srv.Name)
			}
			injected += rep.Stats.Counter(CtrFaultsInjected)
			degraded += rep.Stats.Counter(CtrDegraded)
			records += len(rep.Degraded)
			if uint64(len(rep.Degraded)) != rep.Stats.Counter(CtrDegraded) {
				t.Errorf("%s: %d degraded records vs counter %d",
					srv.Name, len(rep.Degraded), rep.Stats.Counter(CtrDegraded))
			}
		}
	}
	if injected == 0 {
		t.Error("no faults injected across the chaos sweep; plan wiring broken")
	}
	t.Logf("chaos sweep: %d faults injected, %d jobs degraded (%d records)", injected, degraded, records)
}

// TestStageTimeout checks Request.StageTimeout: an already-expired budget
// cancels the fanned-out stages and surfaces as a context error.
func TestStageTimeout(t *testing.T) {
	srv, err := Server("nginx")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), Request{Server: srv, Seed: 42, Workers: 2, StageTimeout: 1})
	if err == nil {
		t.Fatal("expired stage timeout did not fail the run")
	}
}
