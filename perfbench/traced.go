package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"crashresist"
)

// tracer keeps a traced operation's spans in memory: for a pipeline, one
// span per (target, stage) between its progress begin and end events; for
// the service, one span per client HTTP request.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	open     map[spanKey]time.Time
	spans    []stageSpan
	progress map[spanKey]int // progress events seen per stage
}

type spanKey struct{ target, stage string }

type stageSpan struct {
	spanKey
	start, end time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[spanKey]time.Time), progress: make(map[spanKey]int)}
}

// event is the Request.Progress callback. It keeps spans in memory.
func (t *tracer) event(ev crashresist.StageEvent) {
	now := time.Now()
	k := spanKey{ev.Target, ev.Stage}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Kind {
	case crashresist.StageBegin:
		t.open[k] = now
	case crashresist.StageProgress:
		t.progress[k]++
	case crashresist.StageEnd:
		if start, ok := t.open[k]; ok {
			t.spans = append(t.spans, stageSpan{k, start.Sub(t.t0), now.Sub(t.t0)})
			delete(t.open, k)
		}
	}
}

// call records one client HTTP request of a service batch as a span of
// target "client". A nil tracer records nothing.
func (t *tracer) call(kind string, start time.Time) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, stageSpan{spanKey{"client", kind}, start.Sub(t.t0), now.Sub(t.t0)})
}

// count returns how many spans of a stage the tracer holds.
func (t *tracer) count(stage string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.stage == stage {
			n++
		}
	}
	return n
}

// stageTotals sums the tracer's span durations per stage name, across
// targets, and per target across stages.
func (t *tracer) stageTotals() (byStage, byTarget map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byStage, byTarget = make(map[string]float64), make(map[string]float64)
	for _, s := range t.spans {
		d := (s.end - s.start).Seconds()
		byStage[s.stage] += d
		byTarget[s.target] += d
	}
	return byStage, byTarget
}

// checks collects the traced run's consistency failures.
type checks struct {
	run, failed []string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.run = append(c.run, msg)
	if !ok {
		c.failed = append(c.failed, msg)
	}
}

// tracedRun alternates untraced and traced operations (at least one pair,
// then while half the budget lasts), derives the per-layer metrics from
// each traced operation (the last one stands), times the workload's layers
// by direct calls, and reports every per-layer metric.
func tracedRun(ctx context.Context, cfg config, w workload) (result, error) {
	start := time.Now()
	steal0 := stealNow()
	m := make(map[string]float64)
	var ck checks

	var sp speedometer
	sp.sample()

	var (
		plain, traced     []float64
		plainAlloc        []float64
		gcShare, gcCycles []float64
		setups            []float64
		attempted, failed int
		lastPair          time.Duration
	)
	runOp := func(tr *tracer) (opSample, error) {
		env, d, err := buildTimed(w)
		if err != nil {
			return opSample{}, err
		}
		defer w.release(env)
		setups = append(setups, d...)
		var out any
		g0 := readGC()
		s, err := timeOp(func() error {
			var err error
			out, err = w.run(ctx, env, tr)
			return err
		})
		g1 := readGC()
		if err != nil {
			return opSample{}, err
		}
		v := w.check(ctx, env, out)
		attempted += v.attempted
		failed += v.failed
		if tr == nil {
			if cpu := g1.busyCPU - g0.busyCPU; cpu > 0 {
				gcShare = append(gcShare, (g1.gcCPU-g0.gcCPU)/cpu)
			}
			gcCycles = append(gcCycles, g1.cycles-g0.cycles)
		} else {
			ck = checks{} // the last traced operation's checks stand
			w.derive(env, out, tr, s, m, &ck)
		}
		return s, nil
	}
	for i := 0; i == 0 || time.Since(start)+lastPair <= cfg.budget/2; i++ {
		pair := time.Now()
		s, err := runOp(nil)
		if err != nil {
			return result{}, fmt.Errorf("untraced operation: %w", err)
		}
		plain = append(plain, s.StealFreeWallS)
		plainAlloc = append(plainAlloc, s.AllocMB)
		if s, err = runOp(newTracer()); err != nil {
			return result{}, fmt.Errorf("traced operation: %w", err)
		}
		traced = append(traced, s.StealFreeWallS)
		lastPair = time.Since(pair)
	}
	m["targets.build_s"] = median(setups)
	m["bench.trace_overhead_share"] = median(traced)/median(plain) - 1
	m["runtime.gc_cpu_share"] = median(gcShare)
	m["runtime.gc_cycles"] = median(gcCycles)
	if n := m["kernel.syscalls"]; n > 0 {
		m["kernel.alloc_bytes_per_syscall"] = median(plainAlloc) * 1e6 / n
	}

	if err := directLayers(ctx, cfg, w, m, &ck); err != nil {
		return result{}, err
	}
	m["host.steal_s"] = stealNow() - steal0
	sp.sample()

	res := result{Metrics: make(map[string]metric, len(layerDefs))}
	var table strings.Builder
	fmt.Fprintf(&table, "%-34s %16s %-6s %-22s %s\n", "per-layer metric", "value", "unit", "should move", "on (predicted unchanged on)")
	for _, d := range layerDefs {
		v, ok := m[d.name]
		shown := fmt.Sprintf("%16.6g", v)
		if v == math.Trunc(v) && math.Abs(v) < 1e15 {
			shown = fmt.Sprintf("%16d", int64(v)) // counts print exactly
		}
		switch {
		case !d.measures(cfg.workload):
			v, shown = 0, fmt.Sprintf("%16s", "-")
		case !ok:
			ck.expect(false, "per-layer metric %s measured", d.name)
		}
		res.Metrics[d.name] = metric{v, d.unit}
		fmt.Fprintf(&table, "%-34s %s %-6s %-22s %s\n", d.name, shown, d.unit, d.moves, d.on)
	}
	fmt.Print(table.String())
	printInfo("traced", map[string]any{
		"workload":        cfg.workload,
		"seed":            cfg.seed,
		"untraced_wall_s": plain,
		"traced_wall_s":   traced,
		"checks":          ck.run,
		"failed_checks":   ck.failed,
		"host":            newHostInfo(m["host.steal_s"], median(sp.samples)),
	})
	for _, f := range ck.failed {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	res.Attempted = attempted + len(ck.run)
	res.Failed = failed + len(ck.failed)
	res.Correct = res.Failed == 0
	return res, nil
}

// directLayers times the layers the workload exercises by calling their
// public functions from the benchmark.
func directLayers(ctx context.Context, cfg config, w workload, m map[string]float64, ck *checks) error {
	seed := cfg.seed
	if cfg.workload == "service" {
		return observerLayers(ctx, cfg, w.(*serviceWorkload).entrySizes, m)
	}
	if err := specFor(seed, m); err != nil {
		return err
	}
	if err := taintOverhead(seed, m); err != nil {
		return err
	}
	if cfg.workload == "table1" {
		return nil
	}
	processCreation(seed, m)
	br, err := crashresist.IE(crashresist.PaperBrowserParams())
	if err != nil {
		return err
	}
	if err := browseReplay(seed, br, m); err != nil {
		return err
	}
	if cfg.workload == "funnel" {
		return fuzzOne(seed, br, m)
	}
	if err := codeLayer(seed, br, m); err != nil {
		return err
	}
	sizes, err := serviceBatch(ctx, cfg, m, ck)
	if err != nil {
		return err
	}
	return observerLayers(ctx, cfg, sizes, m)
}

// serviceBatch drives one service batch and reads the service and CAS
// layer metrics from it. The seh traced run calls it because the service
// workload, where these layers move end-to-end metrics, is out of
// BENCHMARK.json (README.md); it returns the CAS entry sizes stored.
func serviceBatch(ctx context.Context, cfg config, m map[string]float64, ck *checks) ([]int64, error) {
	sw := newServiceWorkload(cfg)
	env, _, err := sw.build()
	if err != nil {
		return nil, err
	}
	defer sw.release(env)
	tr := newTracer()
	out, err := sw.run(ctx, env, tr)
	if err != nil {
		return nil, fmt.Errorf("service batch: %w", err)
	}
	layer := make(map[string]float64)
	sw.derive(env, out, tr, opSample{}, layer, ck)
	for k, v := range layer {
		if strings.HasPrefix(k, "cas.") || strings.HasPrefix(k, "service.") {
			m[k] = v
		}
	}
	return sw.entrySizes, nil
}

// observerLayers times CAS gets and puts on the given entry sizes and the
// profile, detection and registry observers' CPU share.
func observerLayers(ctx context.Context, cfg config, sizes []int64, m map[string]float64) error {
	if err := casLayer(filepath.Join(cfg.scratchDir(), "cas-direct"), sizes, m); err != nil {
		return err
	}
	return observerOverhead(ctx, cfg.seed, m)
}

// derive reads a traced pipeline operation: stage spans from the tracer,
// counters and job spans from RunStats, and checks that what the
// benchmark observed agrees with what the program counted.
func (p *pipeline) derive(_ any, out any, tr *tracer, s opSample, m map[string]float64, ck *checks) {
	res := out.(*crashresist.Result)
	stats := res.RunStats()
	ctr := func(c crashresist.MetricCounter) float64 {
		var n uint64
		for _, st := range stats {
			n += st.Counter(c)
		}
		return float64(n)
	}
	m["discover.pool_tasks"] = ctr(crashresist.CtrPoolTasks)
	m["vm.instructions"] = ctr(crashresist.CtrInstructions)
	m["kernel.syscalls"] = ctr(crashresist.CtrSyscalls)
	m["kernel.efault_returns"] = ctr(crashresist.CtrEFAULTReturns)
	m["fuzz.probes"] = ctr(crashresist.CtrProbes)
	m["winapi.api_calls"] = ctr(crashresist.CtrAPICalls)
	m["sym.cache_hits"] = ctr(crashresist.CtrSymexCacheHits)
	m["sym.cache_misses"] = ctr(crashresist.CtrSymexCacheMisses)

	byStage, byTarget := tr.stageTotals()
	for stage, d := range byStage {
		m["discover."+stage+"_s"] = d
	}
	for target, d := range byTarget {
		ck.expect(d <= s.WallS, "%s: stage spans %.6fs within operation wall %.6fs", target, d, s.WallS)
	}

	var validateJobs, progress int
	var busy, capacity, maxValidate float64
	for _, st := range stats {
		for _, stage := range st.Stages {
			k := spanKey{st.Target, stage.Name}
			tr.mu.Lock()
			seen := tr.progress[k]
			tr.mu.Unlock()
			progress += seen
			ck.expect(seen == stage.Jobs, "%s/%s: %d progress events for %d jobs", st.Target, stage.Name, seen, stage.Jobs)
			if stage.Name == "validate" {
				validateJobs += stage.Jobs
			}
		}
		b, c, mx := poolUse(st)
		busy, capacity, maxValidate = busy+b, capacity+c, max(maxValidate, mx)
	}
	if capacity > 0 {
		m["discover.pool_idle_share"] = 1 - busy/capacity
	}
	switch p.name {
	case "table1":
		m["discover.validate_max_job_s"] = maxValidate
		usable := 0
		for _, rep := range res.Servers {
			usable += len(rep.Usable())
		}
		if validateJobs > 0 {
			m["discover.validate_useful_share"] = float64(usable) / float64(validateJobs)
		}
	case "seh":
		m["sym.filters"] = float64(res.SEH.TotalFilters)
		uncacheable := ctr(crashresist.CtrSymexCacheUncacheable)
		ck.expect(m["sym.cache_hits"]+m["sym.cache_misses"]+uncacheable == m["sym.filters"],
			"symex cache hits+misses+uncacheable %.0f+%.0f+%.0f equal the report's %.0f filters",
			m["sym.cache_hits"], m["sym.cache_misses"], uncacheable, m["sym.filters"])
		if res.Profile != nil {
			m["sym.steps"] = float64(res.Profile.Totals["symex_steps"])
		}
	}
}

// poolUse returns, over a run's pooled stages, the worker time spent on
// jobs, the capacity (workers × stage wall) and the slowest validate job.
// Job spans give the busy time where the run recorded all of a stage's
// jobs; past the per-run job-span cap, the stage's worker-lane (shard)
// spans, which are never dropped, stand in for them.
func poolUse(st *crashresist.RunStats) (busy, capacity, maxValidate float64) {
	byID := make(map[string]crashresist.TraceSpan, len(st.Spans))
	for _, sp := range st.Spans {
		byID[sp.ID] = sp
	}
	stageOf := func(sp crashresist.TraceSpan) (crashresist.TraceSpan, bool) {
		for sp.Kind != "stage" {
			parent, ok := byID[sp.Parent]
			if !ok {
				return sp, false
			}
			sp = parent
		}
		return sp, true
	}
	type use struct {
		jobs, jobTime, laneTime float64
	}
	stages := make(map[string]*use)
	for _, sp := range st.Spans {
		if sp.Kind != "job" && sp.Kind != "shard" {
			continue
		}
		stage, ok := stageOf(sp)
		if !ok {
			continue
		}
		u := stages[stage.ID]
		if u == nil {
			u = &use{}
			stages[stage.ID] = u
		}
		d := float64(sp.DurNS) / 1e9
		if sp.Kind == "shard" {
			u.laneTime += d
			continue
		}
		u.jobs++
		u.jobTime += d
		if stage.Name == "validate" {
			maxValidate = max(maxValidate, d)
		}
	}
	jobs := make(map[string]int)
	for _, stage := range st.Stages {
		jobs[stage.Name] = stage.Jobs
	}
	for id, u := range stages {
		stage := byID[id]
		if int(u.jobs) == jobs[stage.Name] {
			busy += u.jobTime
		} else {
			busy += u.laneTime
		}
		capacity += float64(st.Workers) * float64(stage.DurNS) / 1e9
	}
	return busy, capacity, maxValidate
}
