package discover

import (
	"fmt"
	"sync/atomic"
	"time"

	"crashresist/internal/cas"
	"crashresist/internal/defense"
	"crashresist/internal/faultinject"
	"crashresist/internal/metrics"
	"crashresist/internal/prof"
)

// Config is one analysis run's settings, shared by the three pipelines:
// AnalyzeServer and AnalyzeServers (§IV-A), AnalyzeAPIs (§IV-B) and
// AnalyzeSEH (§IV-C). A Config holding only a Seed is a clean, uncached,
// unobserved run on GOMAXPROCS workers. Besides Seed, only FaultPlan and
// Retries change report contents, through the jobs they degrade.
type Config struct {
	// Seed fixes ASLR and every derived RNG, so provenance addresses stay
	// valid between an observation run and its corrupted replays.
	Seed int64
	// Workers bounds every fan-out (servers, validation replays, fuzzing,
	// classification, per-DLL symex); <= 0 selects GOMAXPROCS.
	Workers int
	// Progress receives live stage events. Each run serializes its own
	// events, but AnalyzeServers interleaves concurrent runs, so the
	// callback must then be safe for concurrent use.
	Progress func(metrics.StageEvent)
	// Sinks receive each run's live events and final RunStats.
	Sinks []metrics.Sink
	// FaultPlan, when non-nil, injects deterministic failures into the
	// run's VM, kernel, symex and pool-job sites (chaos mode).
	FaultPlan *faultinject.Plan
	// Retries bounds per-job re-runs after a transient failure. Setting
	// Retries (or FaultPlan) switches failed jobs from aborting the run to
	// degrading: they are dropped and recorded in the report's Degraded.
	Retries int
	// StageTimeout bounds each fanned-out stage; zero means no limit. A
	// timeout cancels the stage and surfaces as a context error.
	StageTimeout time.Duration
	// Cache, when non-nil, persists per-unit results across runs, keyed by
	// content (see cache.go). Ignored while a FaultPlan is attached: chaos
	// runs must neither read nor write entries shared with clean runs.
	Cache *cas.Cache
	// Profile, when non-nil, receives the run's deterministic cost
	// attribution (see internal/prof).
	Profile *prof.Profile
	// Detect, when non-nil, receives the run's detection section: benign
	// baselines, per-primitive probe batteries and the run-level fault
	// series. The run watches on Detect's calibration panel and folds only
	// its own section in, when it finishes. The section rides RunStats,
	// never report rows.
	Detect *defense.Detect

	// fullReplay makes every classify rebuild the browser and browse from
	// the start instead of forking the watch browse: the reference path
	// the differential tests set. watches, when set, counts the run's
	// watch browses for the tests that bound them.
	fullReplay bool
	watches    *atomic.Int64
}

// pipelineRun is one pipeline run: its Config, its collector, its
// retry/degradation state and its detection observer. Every unit of work
// reaches those observers and Config.Profile through one charge (see
// ledger.go). Cache is nil when the run must not use it.
type pipelineRun struct {
	Config
	pipeline, target string
	col              *metrics.Collector
	res              *resilience
	// det watches this run alone, on Config.Detect's calibration panel;
	// finish folds its section into Config.Detect.
	det *defense.Detect
}

// begin builds the observers for one run of pipeline against target.
func (c Config) begin(pipeline, target string) *pipelineRun {
	col := metrics.NewCollector(pipeline, target, poolWorkers(c.Workers))
	col.SetProgress(c.Progress)
	for _, s := range c.Sinks {
		col.AddSink(s)
	}
	r := &pipelineRun{
		Config:   c,
		pipeline: pipeline,
		target:   target,
		col:      col,
		res:      newResilience(c.FaultPlan, c.Retries),
	}
	if c.FaultPlan != nil {
		r.Cache = nil
	}
	if c.Detect != nil {
		r.det = defense.NewDetect(c.Detect.Calibrations()...)
	}
	return r
}

// finish returns the run's degraded jobs and its RunStats. It renders the
// run's detection section first, folds it into Config.Detect, streams its
// detections as typed events (live stream first, then baseline trips) and
// attaches it to RunStats. Call after every stage has merged.
func (r *pipelineRun) finish() ([]Degraded, *metrics.RunStats, error) {
	degraded := r.res.take()
	if sec := r.det.Section(r.pipeline, r.target); sec != nil {
		r.Detect.FoldSection(sec)
		for _, ev := range sec.Events {
			r.col.Detection(ev)
		}
		if sec.Baseline != nil {
			for _, ev := range sec.Baseline.Events {
				r.col.Detection(ev)
			}
		}
		r.col.SetDetect(sec)
	}
	stats, err := r.col.Finish()
	if err != nil {
		return nil, nil, fmt.Errorf("flush metrics %s: %w", r.target, err)
	}
	return degraded, stats, nil
}
