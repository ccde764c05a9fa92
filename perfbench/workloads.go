package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"crashresist"
)

// workloadNames lists every workload the benchmark runs. BENCHMARK.json
// leaves out service, which stays runnable by name; README.md gives its
// measured spreads and why it is left out.
var workloadNames = []string{"table1", "funnel", "seh", "service"}

// goldenDir holds crtables' paper-scale golden renderings, relative to the
// checkout root.
const goldenDir = "cmd/crtables/testdata/golden"

// pipelineWorkers is the worker count of every pipeline operation, set
// explicitly to the two vCPUs the benchmark is tuned for.
const pipelineWorkers = 2

// verdict is the checked outcome of one operation.
type verdict struct {
	// attempted and failed count the verified units: one per pipeline
	// operation, one per submitted job for the service.
	attempted, failed int
	// jobLatency holds per-job submit-to-done seconds (service only).
	jobLatency []float64
}

// workload is one benchmark input set: how to build its targets, run one
// operation on them, and check the operation's output.
type workload interface {
	// setupReps is how many from-scratch builds a run times for setup_s
	// before each operation, the last of which the operation uses.
	setupReps() int
	// build constructs the operation's targets from scratch and returns
	// the process CPU time of the part that is set-up.
	build() (env any, setup time.Duration, err error)
	// release frees what build returned.
	release(env any)
	// run executes one operation; tr, when non-nil, receives the
	// pipeline's progress events (traced runs only).
	run(ctx context.Context, env any, tr *tracer) (any, error)
	// check verifies an operation's output outside the timed window.
	check(ctx context.Context, env, out any) verdict
	// derive reads a traced operation's per-layer metrics into m and
	// records its consistency checks.
	derive(env, out any, tr *tracer, s opSample, m map[string]float64, ck *checks)
	// mix describes the realized input mix, or nil.
	mix() any
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "table1":
		return newPipeline(cfg, "table1", []string{"table1"})
	case "funnel":
		return newPipeline(cfg, "funnel", []string{"funnel"})
	case "seh":
		return newPipeline(cfg, "seh", []string{"table2", "table3"})
	case "service":
		return newServiceWorkload(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// pipeline is a paper-evaluation workload: one operation is one full Run
// producing the paper artifact, cache off, checked byte-for-byte against
// crtables' goldens.
type pipeline struct {
	name   string
	seed   int64
	golden string // expected rendering, goldens concatenated
}

func newPipeline(cfg config, name string, goldens []string) (*pipeline, error) {
	var want strings.Builder
	for _, g := range goldens {
		data, err := os.ReadFile(filepath.Join(cfg.root, goldenDir, g+".golden"))
		if err != nil {
			return nil, err
		}
		want.Write(data)
	}
	return &pipeline{name: name, seed: cfg.seed, golden: want.String()}, nil
}

func (p *pipeline) setupReps() int {
	if p.name == "table1" {
		return 41 // Servers() takes 0.1–0.3 ms
	}
	return 1 // IE(paper) takes 0.07–0.15 s
}

func (p *pipeline) build() (any, time.Duration, error) {
	t0 := cpuTime()
	var env any
	var err error
	if p.name == "table1" {
		env, err = crashresist.Servers()
	} else {
		env, err = crashresist.IE(crashresist.PaperBrowserParams())
	}
	return env, cpuTime() - t0, err
}

func (p *pipeline) release(any) {}
func (p *pipeline) mix() any    { return nil }

// request is the operation's Run request over built targets.
func (p *pipeline) request(env any, tr *tracer) crashresist.Request {
	req := crashresist.Request{Seed: p.seed, Workers: pipelineWorkers}
	switch p.name {
	case "table1":
		req.Servers = env.([]*crashresist.ServerTarget)
	case "funnel":
		req.Browser = env.(*crashresist.BrowserTarget)
		req.Pipeline = crashresist.PipelineAPI
	default:
		req.Browser = env.(*crashresist.BrowserTarget)
		req.Pipeline = crashresist.PipelineSEH
	}
	if tr != nil {
		req.Progress = tr.event
		// Symex steps are only counted by the cost profiler.
		req.IncludeProfile = p.name == "seh"
	}
	return req
}

func (p *pipeline) run(ctx context.Context, env any, tr *tracer) (any, error) {
	return crashresist.Run(ctx, p.request(env, tr))
}

func (p *pipeline) check(_ context.Context, _, out any) verdict {
	got := render(out.(*crashresist.Result))
	if got != p.golden {
		fmt.Fprintf(os.Stderr, "perfbench: %s output differs from the goldens:\n%s", p.name, got)
		return verdict{attempted: 1, failed: 1}
	}
	return verdict{attempted: 1}
}

// render writes a result the way `crtables -table <t>` prints it, so the
// bytes compare equal to the goldens.
func render(res *crashresist.Result) string {
	var b bytes.Buffer
	switch {
	case res.Servers != nil:
		fmt.Fprintln(&b, crashresist.FormatTableI(res.Servers))
		for _, rep := range res.Servers {
			fmt.Fprintf(&b, "%s usable: %v\n", rep.Server, rep.Usable())
		}
		renderDegraded(&b, res.DegradedJobs())
		fmt.Fprintln(&b)
	case res.Funnel != nil:
		fmt.Fprintln(&b, crashresist.FormatFunnel(res.Funnel))
		renderDegraded(&b, res.DegradedJobs())
	case res.SEH != nil:
		fmt.Fprintln(&b, crashresist.FormatTableII(res.SEH, crashresist.NamedDLLs()))
		fmt.Fprintln(&b, crashresist.FormatTableIII(res.SEH, crashresist.NamedDLLs()))
		renderDegraded(&b, res.DegradedJobs())
	}
	return b.String()
}

// renderDegraded appends dropped jobs, which clean runs never have; any
// line here makes the comparison fail.
func renderDegraded(b *bytes.Buffer, degraded []crashresist.Degraded) {
	for _, d := range degraded {
		fmt.Fprintf(b, "degraded: %s %s attempts=%d %s\n", d.Stage, d.Key, d.Attempts, d.Err)
	}
}
