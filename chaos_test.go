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
	"strings"
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

// chaosBookkeepingSeed degrades a validation job of nginx and a symex job
// of the small IE corpus, so the bookkeeping sweep meets degraded jobs of
// pool stages at every scale.
const chaosBookkeepingSeed = 46

// TestChaosStageBookkeeping checks that every record of a run names a job
// alike, clean and under each chaos seed, at 1 and 4 workers:
//
//   - every stage's progress events equal its StageStats.Jobs;
//   - when no job span was dropped, every pool stage records one job span
//     per job, named <stage>/<unit>, and each report row's unit (a
//     finding's syscall/arg, a classified API, a module row) has one;
//   - every Degraded record of a pool stage names an existing job span
//     <Stage>/<Key>.
func TestChaosStageBookkeeping(t *testing.T) {
	srv, err := Server("nginx")
	if err != nil {
		t.Fatal(err)
	}
	br, err := IE(chaosBrowserScale(t))
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		req  Request
	}{
		{"nginx", Request{Server: srv}},
		{"ie-api", Request{Pipeline: PipelineAPI, Browser: br}},
		{"ie-seh", Request{Pipeline: PipelineSEH, Browser: br}},
	}
	degraded := make(map[string]bool) // pool stage → a job degraded
	for _, run := range runs {
		for _, seed := range append([]int64{0, chaosBookkeepingSeed}, chaosSeedSet()...) {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/chaos-%d/workers-%d", run.name, seed, workers)
				progress := make(map[string]int)
				req := run.req
				req.Seed, req.Workers, req.ChaosSeed = 42, workers, seed
				// Run serializes the callback.
				req.Progress = func(ev StageEvent) {
					if ev.Kind == StageProgress {
						progress[ev.Stage]++
					}
				}
				res, err := Run(context.Background(), req)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				stats := res.RunStats()
				if len(stats) != 1 || stats[0] == nil {
					t.Fatalf("%s: %d RunStats, want 1", name, len(stats))
				}
				st := stats[0]
				spans := make(map[string]TraceSpan, len(st.Spans))
				for _, sp := range st.Spans {
					spans[sp.ID] = sp
				}
				jobs := make(map[string][]string) // stage → its job span names
				for _, sp := range st.Spans {
					if sp.Kind == "job" {
						stage := spans[spans[sp.Parent].Parent].Name
						jobs[stage] = append(jobs[stage], sp.Name)
					}
				}
				named := make(map[string]bool)
				pool := make(map[string]bool)
				for _, stage := range st.Stages {
					if progress[stage.Name] != stage.Jobs {
						t.Errorf("%s: stage %s: %d progress events for %d jobs", name, stage.Name, progress[stage.Name], stage.Jobs)
					}
					if stage.ShardTasks == nil {
						continue // not run on the pool
					}
					pool[stage.Name] = true
					if st.SpansDropped > 0 {
						continue
					}
					if len(jobs[stage.Name]) != stage.Jobs {
						t.Errorf("%s: stage %s: %d job spans for %d jobs", name, stage.Name, len(jobs[stage.Name]), stage.Jobs)
					}
					for _, job := range jobs[stage.Name] {
						if !strings.HasPrefix(job, stage.Name+"/") || named[job] {
							t.Errorf("%s: stage %s: job span %q is not one <stage>/<unit>", name, stage.Name, job)
						}
						named[job] = true
					}
				}
				if st.SpansDropped == 0 {
					for _, job := range rowJobs(res) {
						if !named[job] {
							t.Errorf("%s: report row's job %s has no job span", name, job)
						}
					}
				}
				for _, d := range res.DegradedJobs() {
					if !pool[d.Stage] {
						continue // a single-unit stage: no job spans
					}
					degraded[d.Stage] = true
					if st.SpansDropped == 0 && !named[d.Stage+"/"+d.Key] {
						t.Errorf("%s: degraded %s job %q names no job span", name, d.Stage, d.Key)
					}
				}
			}
		}
	}
	for _, stage := range []string{"validate", "symex"} {
		if !degraded[stage] {
			t.Errorf("no chaos seed degraded a %s job", stage)
		}
	}
}

// rowJobs names the job behind each report row: validate/<syscall>/<arg>
// per finding, classify/<api> per classification, symex/<module> per
// module row.
func rowJobs(res *Result) []string {
	var out []string
	switch {
	case res.Syscall != nil:
		for _, f := range res.Syscall.Findings {
			out = append(out, fmt.Sprintf("validate/%s/%d", f.Syscall, f.ArgIndex))
		}
	case res.Funnel != nil:
		for _, c := range res.Funnel.Classifications {
			out = append(out, "classify/"+c.API)
		}
	case res.SEH != nil:
		for _, m := range res.SEH.Modules {
			out = append(out, "symex/"+m.Module)
		}
	}
	return out
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
