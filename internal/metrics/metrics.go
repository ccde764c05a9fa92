// Package metrics is the pipeline observability layer: deterministic-safe
// counters and stage spans collected while a discovery run is in flight.
//
// The paper's evaluation is a funnel — how many syscalls, APIs and filters
// survive each stage — but the reports only capture the end state. This
// package makes the run itself observable: every analysis owns a Collector,
// layers below it (emulator, kernel, fuzzer, symbolic-execution cache,
// worker pool) add counters, and the pipeline marks stage boundaries. The
// final snapshot is a RunStats attached to the pipeline's report; live
// StageEvents stream to an optional progress callback and to Sinks.
//
// Determinism contract: counter totals are sums of per-job contributions,
// and jobs are scheduling-independent, so every counter except the
// per-shard task distribution is identical at any worker count. Wall-clock
// durations and shard distributions are explicitly non-deterministic and
// live only in RunStats — never in report rows — so golden tables stay
// byte-identical whether metrics are consumed or not.
package metrics

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crashresist/internal/defense"
	"crashresist/internal/vm"
)

// Counter identifies one monotonically increasing run counter.
type Counter uint8

// Counters. Totals are deterministic for a fixed seed and scale at any
// worker count (see the package comment for the contract).
const (
	// CtrInstructions counts instructions retired by analyzed processes.
	CtrInstructions Counter = iota
	// CtrFaults counts exceptions raised (page faults and others).
	CtrFaults
	// CtrFaultsUnmapped counts access violations on unmapped memory — the
	// class crash-resistant probing generates.
	CtrFaultsUnmapped
	// CtrFaultsHandled counts exceptions resolved by a handler.
	CtrFaultsHandled
	// CtrSyscalls counts syscalls dispatched by the kernel model.
	CtrSyscalls
	// CtrEFAULTReturns counts syscalls that completed with -EFAULT.
	CtrEFAULTReturns
	// CtrAPICalls counts Windows-model platform API invocations.
	CtrAPICalls
	// CtrProbes counts probes issued (fuzzing battery + oracle scans).
	CtrProbes
	// CtrProbesMapped counts probes that found mapped memory.
	CtrProbesMapped
	// CtrSymexCacheHits counts filter analyses answered from the cache.
	CtrSymexCacheHits
	// CtrSymexCacheMisses counts filter analyses executed and stored.
	CtrSymexCacheMisses
	// CtrSymexCacheUncacheable counts impure or symbol-less analyses.
	CtrSymexCacheUncacheable
	// CtrPoolTasks counts jobs executed by the discovery worker pool.
	CtrPoolTasks
	// CtrFaultsInjected counts failures fired by an attached fault plan
	// across all sites (VM, kernel, symex, pool).
	CtrFaultsInjected
	// CtrRetries counts job attempts re-run after a transient failure.
	CtrRetries
	// CtrBackoffTicks counts virtual backoff ticks accumulated between
	// retry attempts (1<<attempt per retry).
	CtrBackoffTicks
	// CtrDegraded counts jobs that exhausted their retries and were
	// recorded as degraded rather than aborting the run.
	CtrDegraded
	// CtrCacheHits counts analyses answered from the persistent
	// content-addressed cache (internal/cas).
	CtrCacheHits
	// CtrCacheMisses counts persistent-cache lookups that degraded to
	// recompute (absent, corrupt, I/O error, or injected fault).
	CtrCacheMisses
	// CtrCacheBadEntries counts persistent-cache entries that failed
	// validation (checksum, framing, or key mismatch).
	CtrCacheBadEntries
	// CtrCacheBytes counts persistent-cache entry bytes transferred:
	// read on hits plus written on stores.
	CtrCacheBytes
	// CtrDetections counts detection events raised by the defense
	// engine's calibration panel over the run's fault streams.
	CtrDetections

	numCounters
)

// String returns the counter's stable wire name.
func (c Counter) String() string {
	switch c {
	case CtrInstructions:
		return "instructions"
	case CtrFaults:
		return "faults"
	case CtrFaultsUnmapped:
		return "faults_unmapped"
	case CtrFaultsHandled:
		return "faults_handled"
	case CtrSyscalls:
		return "syscalls"
	case CtrEFAULTReturns:
		return "efault_returns"
	case CtrAPICalls:
		return "api_calls"
	case CtrProbes:
		return "probes"
	case CtrProbesMapped:
		return "probes_mapped"
	case CtrSymexCacheHits:
		return "symex_cache_hits"
	case CtrSymexCacheMisses:
		return "symex_cache_misses"
	case CtrSymexCacheUncacheable:
		return "symex_cache_uncacheable"
	case CtrPoolTasks:
		return "pool_tasks"
	case CtrFaultsInjected:
		return "faults_injected"
	case CtrRetries:
		return "retries"
	case CtrBackoffTicks:
		return "backoff_ticks"
	case CtrDegraded:
		return "degraded"
	case CtrCacheHits:
		return "cache_hits"
	case CtrCacheMisses:
		return "cache_misses"
	case CtrCacheBadEntries:
		return "cache_bad_entries"
	case CtrCacheBytes:
		return "cache_bytes"
	case CtrDetections:
		// "detection_events" keeps the plain {pipeline,target} counter
		// family distinct from crashresist_detections_total, which the
		// registry renders with a detector label from folded sections.
		return "detection_events"
	default:
		return fmt.Sprintf("counter_%d", uint8(c))
	}
}

// EventKind classifies a StageEvent.
type EventKind uint8

// Event kinds.
const (
	// StageBegin fires when a pipeline stage starts.
	StageBegin EventKind = iota + 1
	// StageProgress fires after each completed job within a stage.
	StageProgress
	// StageEnd fires when a stage finishes.
	StageEnd
	// StageDetection fires when a defense detector trips; the event
	// carries the typed DetectionEvent record.
	StageDetection
)

// String returns the kind's stable wire name.
func (k EventKind) String() string {
	switch k {
	case StageBegin:
		return "begin"
	case StageProgress:
		return "progress"
	case StageEnd:
		return "end"
	case StageDetection:
		return "detection"
	default:
		return fmt.Sprintf("kind_%d", uint8(k))
	}
}

// MarshalJSON encodes the kind as its string name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON decodes a kind from its string name.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	for _, v := range []EventKind{StageBegin, StageProgress, StageEnd, StageDetection} {
		if v.String() == s {
			*k = v
			return nil
		}
	}
	return fmt.Errorf("unknown event kind %q", s)
}

// StageEvent is one live progress notification. Events are serialized per
// Collector: callbacks never run concurrently for the same run.
type StageEvent struct {
	// Pipeline names the running pipeline: syscall, api or seh.
	Pipeline string `json:"pipeline"`
	// Target names the analysis subject (server or browser name).
	Target string `json:"target,omitempty"`
	// Stage names the span the event belongs to.
	Stage string `json:"stage"`
	// Kind is begin, progress or end.
	Kind EventKind `json:"kind"`
	// Done is the number of completed jobs in the stage so far.
	Done int `json:"done"`
	// Total is the job count of the stage (0 when not job-structured).
	Total int `json:"total"`
	// Detection carries the typed detector verdict on StageDetection
	// events; nil otherwise.
	Detection *defense.DetectionEvent `json:"detection,omitempty"`
}

// StageStats is the completed record of one pipeline stage.
type StageStats struct {
	// Name is the span name (taint, validate, fuzz, symex, ...).
	Name string `json:"name"`
	// Jobs is how many pool jobs the stage fanned out (0 when the stage
	// is a single unit of work).
	Jobs int `json:"jobs"`
	// ShardTasks is the per-worker task distribution when the stage ran
	// on the worker pool. The total is deterministic; the split is not.
	ShardTasks []int `json:"shard_tasks,omitempty"`
	// WallNS is the stage's wall-clock duration. Non-deterministic.
	WallNS int64 `json:"wall_ns"`
	// Latency is the stage's per-job virtual-cost histogram (nil when the
	// stage recorded none). Contents are deterministic: identical at any
	// worker count and across repeat runs of the same seed (see hist.go).
	Latency *HistSnapshot `json:"latency,omitempty"`
}

// RunStats is the observability record of one analysis run, attached to the
// pipeline's report and exportable as JSON.
type RunStats struct {
	// Pipeline is syscall, api or seh.
	Pipeline string `json:"pipeline"`
	// Target is the analyzed server or browser name.
	Target string `json:"target,omitempty"`
	// Workers is the resolved worker-pool bound for the run.
	Workers int `json:"workers"`
	// Counters holds the final counter totals keyed by Counter name.
	Counters map[string]uint64 `json:"counters"`
	// Stages lists the stage spans in execution order.
	Stages []StageStats `json:"stages,omitempty"`
	// Spans is the run's hierarchical span tree (run → pipeline → stage →
	// shard → job), ordered by start time. Span IDs are deterministic;
	// wall-clock fields and shard placement are not (see span.go).
	Spans []Span `json:"spans,omitempty"`
	// SpansDropped counts job spans discarded past the per-run cap.
	SpansDropped int `json:"spans_dropped,omitempty"`
	// FaultEvents is the run's fault-event time series: -EFAULT syscall
	// completions bucketed by the virtual second of the emitting process's
	// clock, summed across all analyzed processes. Deterministic for a
	// fixed seed at any worker count (bucket sums commute).
	FaultEvents map[uint64]uint64 `json:"fault_events,omitempty"`
	// Detect is the run's detection record — the defense engine's
	// per-primitive detectability rows, benign baseline, and the
	// detections raised over the run's fault streams. Stats-adjacent like
	// everything else here: report formatters never read it, so golden
	// table bytes are identical with detection on or off. Deterministic
	// for a fixed request at any worker count and cache state.
	Detect *defense.Section `json:"detect,omitempty"`
	// WallNS is the whole run's wall-clock duration. Non-deterministic.
	WallNS int64 `json:"wall_ns"`
}

// Counter returns a counter total by enum, 0 when absent.
func (r *RunStats) Counter(c Counter) uint64 {
	if r == nil {
		return 0
	}
	return r.Counters[c.String()]
}

// Format renders the stats as an indented text block for terminal output.
func (r *RunStats) Format() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "run stats — pipeline=%s", r.Pipeline)
	if r.Target != "" {
		fmt.Fprintf(&b, " target=%s", r.Target)
	}
	fmt.Fprintf(&b, " workers=%d wall=%s\n", r.Workers, time.Duration(r.WallNS))
	keys := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("  counters:")
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, r.Counters[k])
	}
	b.WriteString("\n")
	for _, st := range r.Stages {
		fmt.Fprintf(&b, "  stage %-10s jobs=%-6d wall=%s", st.Name, st.Jobs, time.Duration(st.WallNS))
		if len(st.ShardTasks) > 0 {
			fmt.Fprintf(&b, " shard-tasks=%v", st.ShardTasks)
		}
		if st.Latency != nil {
			fmt.Fprintf(&b, " ticks{p50=%d p95=%d p99=%d max=%d}", st.Latency.P50, st.Latency.P95, st.Latency.P99, st.Latency.Max)
		}
		b.WriteString("\n")
	}
	if len(r.Spans) > 0 {
		fmt.Fprintf(&b, "  spans: %d recorded", len(r.Spans))
		if r.SpansDropped > 0 {
			fmt.Fprintf(&b, " (%d job spans dropped past the cap)", r.SpansDropped)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Collector gathers counters and stage spans for one analysis run. Counter
// updates are lock-free and safe from any worker goroutine; stage and event
// bookkeeping is serialized internally. A nil *Collector is a valid no-op
// receiver for every method, so instrumentation points need no nil checks.
type Collector struct {
	pipeline string
	target   string
	workers  int
	start    time.Time

	// runID and pipeID anchor the span tree; derived deterministically
	// from the run's identity (see span.go).
	runID  uint64
	pipeID uint64

	counts [numCounters]atomic.Uint64

	// emitting is non-zero when a progress callback or sink is attached;
	// workers check it before paying for event serialization.
	emitting atomic.Bool
	// jobSpans counts the job spans opened, dropped ones included;
	// spansDropped counts those past the cap.
	jobSpans, spansDropped atomic.Int64

	mu          sync.Mutex
	faultEvents map[uint64]uint64
	detect      *defense.Section
	stages      []StageStats
	stageSeq    int
	spans       []Span
	progress    func(StageEvent)
	sinks       []Sink
}

// NewCollector starts a collector for one pipeline run. workers is the
// resolved pool bound recorded in the snapshot.
func NewCollector(pipeline, target string, workers int) *Collector {
	runID := deriveSpanID(0, SpanRun, target, 0)
	return &Collector{
		pipeline: pipeline,
		target:   target,
		workers:  workers,
		start:    time.Now(),
		runID:    runID,
		pipeID:   deriveSpanID(runID, SpanPipeline, pipeline, 0),
	}
}

// SetProgress installs a live progress callback. Events for one collector
// are serialized; when multiple analyses run in parallel (AnalyzeServers),
// each has its own collector, so the callback must tolerate interleaving
// across runs (the public API wraps callbacks with a mutex).
func (c *Collector) SetProgress(fn func(StageEvent)) {
	if c == nil || fn == nil {
		return
	}
	c.mu.Lock()
	c.progress = fn
	c.mu.Unlock()
	c.emitting.Store(true)
}

// AddSink attaches a sink receiving live events and the final snapshot.
func (c *Collector) AddSink(s Sink) {
	if c == nil || s == nil {
		return
	}
	c.mu.Lock()
	c.sinks = append(c.sinks, s)
	c.mu.Unlock()
	c.emitting.Store(true)
}

// Add increments a counter. Safe from any goroutine; additions commute, so
// totals are deterministic regardless of scheduling.
func (c *Collector) Add(ctr Counter, n uint64) {
	if c == nil || ctr >= numCounters || n == 0 {
		return
	}
	c.counts[ctr].Add(n)
}

// AddVM adds a finished process's VM counters to the run counters.
func (c *Collector) AddVM(s vm.Stats) {
	c.Add(CtrInstructions, s.Instructions)
	c.Add(CtrFaults, s.Faults)
	c.Add(CtrFaultsUnmapped, s.FaultsUnmapped)
	c.Add(CtrFaultsHandled, s.FaultsHandled)
	c.Add(CtrFaultsInjected, s.FaultsInjected)
	c.Add(CtrSyscalls, s.Syscalls)
	c.Add(CtrAPICalls, s.APICalls)
}

// AddFaultEvents folds one process's fault-event time series (kernel
// -EFAULT completions bucketed by virtual second) into the run's series.
// Bucket additions commute, so the accumulated series is deterministic at
// any worker count. Safe from any goroutine.
func (c *Collector) AddFaultEvents(buckets map[uint64]uint64) {
	if c == nil || len(buckets) == 0 {
		return
	}
	c.mu.Lock()
	if c.faultEvents == nil {
		c.faultEvents = make(map[uint64]uint64)
	}
	for b, n := range buckets {
		c.faultEvents[b] += n
	}
	c.mu.Unlock()
}

// SetDetect attaches the run's detection record so the final RunStats
// carries it to sinks and report stats. Call before Finish.
func (c *Collector) SetDetect(sec *defense.Section) {
	if c == nil || sec == nil {
		return
	}
	c.mu.Lock()
	c.detect = sec
	c.mu.Unlock()
}

// Detection emits one typed detector verdict into the live event stream
// (progress callback + sinks) and counts it in CtrDetections.
func (c *Collector) Detection(ev defense.DetectionEvent) {
	if c == nil {
		return
	}
	c.Add(CtrDetections, 1)
	c.emit(StageEvent{Stage: "detect", Kind: StageDetection, Detection: &ev})
}

// emit delivers one event to the progress callback and sinks, serialized.
func (c *Collector) emit(ev StageEvent) {
	if c == nil || !c.emitting.Load() {
		return
	}
	ev.Pipeline = c.pipeline
	ev.Target = c.target
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.progress != nil {
		c.progress(ev)
	}
	for _, s := range c.sinks {
		s.Event(ev)
	}
}

// Stage is one in-flight pipeline span. Obtain via StartStage; a nil *Stage
// is a valid no-op receiver.
type Stage struct {
	c       *Collector
	name    string
	id      uint64
	jobs    int
	done    atomic.Int64
	start   time.Time
	hist    *Hist
	jobName func(i int) string

	mu     sync.Mutex
	shards []int
	ended  bool
}

// StartStage begins a span. jobs is the stage's fan-out width (0 for
// single-unit stages). The matching End must run on the starting goroutine
// so span order in RunStats is deterministic.
func (c *Collector) StartStage(name string, jobs int) *Stage {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	seq := c.stageSeq
	c.stageSeq++
	c.mu.Unlock()
	s := &Stage{
		c:     c,
		name:  name,
		id:    deriveSpanID(c.pipeID, SpanStage, name, seq),
		jobs:  jobs,
		start: time.Now(),
		hist:  new(Hist),
	}
	c.emit(StageEvent{Stage: name, Kind: StageBegin, Total: jobs})
	return s
}

// JobDone records one completed job, emitting a progress event. Safe from
// any worker goroutine.
func (s *Stage) JobDone() {
	if s == nil {
		return
	}
	done := int(s.done.Add(1))
	s.c.emit(StageEvent{Stage: s.name, Kind: StageProgress, Done: done, Total: s.jobs})
}

// ShardTasks records the per-worker task distribution of the stage's pool
// run. The total also feeds CtrPoolTasks.
func (s *Stage) ShardTasks(tasks []int) {
	if s == nil {
		return
	}
	total := 0
	for _, n := range tasks {
		total += n
	}
	s.c.Add(CtrPoolTasks, uint64(total))
	s.mu.Lock()
	s.shards = append([]int(nil), tasks...)
	s.mu.Unlock()
}

// End closes the span, appending it to the run's stage list.
func (s *Stage) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	shards := s.shards
	s.mu.Unlock()

	done := int(s.done.Load())
	st := StageStats{
		Name:       s.name,
		Jobs:       s.jobs,
		ShardTasks: shards,
		WallNS:     time.Since(s.start).Nanoseconds(),
		Latency:    s.hist.Snapshot(),
	}
	s.c.mu.Lock()
	s.c.stages = append(s.c.stages, st)
	s.c.mu.Unlock()
	s.c.appendSpan(Span{
		ID:      spanID(s.id),
		Parent:  spanID(s.c.pipeID),
		Kind:    SpanStage,
		Name:    s.name,
		Shard:   -1,
		Job:     -1,
		StartNS: s.start.Sub(s.c.start).Nanoseconds(),
		DurNS:   st.WallNS,
	})
	s.c.emit(StageEvent{Stage: s.name, Kind: StageEnd, Done: done, Total: s.jobs})
}

// Snapshot produces the run's RunStats without flushing sinks.
func (c *Collector) Snapshot() *RunStats {
	if c == nil {
		return nil
	}
	counters := make(map[string]uint64, int(numCounters))
	for i := Counter(0); i < numCounters; i++ {
		if v := c.counts[i].Load(); v > 0 {
			counters[i.String()] = v
		}
	}
	wall := time.Since(c.start).Nanoseconds()
	c.mu.Lock()
	faults := maps.Clone(c.faultEvents)
	detect := c.detect
	stages := append([]StageStats(nil), c.stages...)
	spans := make([]Span, 0, len(c.spans)+2)
	spans = append(spans,
		Span{ID: spanID(c.runID), Kind: SpanRun, Name: c.target, Shard: -1, Job: -1, DurNS: wall},
		Span{ID: spanID(c.pipeID), Parent: spanID(c.runID), Kind: SpanPipeline, Name: c.pipeline, Shard: -1, Job: -1, DurNS: wall})
	spans = append(spans, c.spans...)
	c.mu.Unlock()
	dropped := int(c.spansDropped.Load())
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	return &RunStats{
		Pipeline:     c.pipeline,
		Target:       c.target,
		Workers:      c.workers,
		Counters:     counters,
		Stages:       stages,
		Spans:        spans,
		SpansDropped: dropped,
		FaultEvents:  faults,
		Detect:       detect,
		WallNS:       wall,
	}
}

// Finish snapshots the run and flushes every attached sink. The first sink
// error is returned; the stats are valid either way.
func (c *Collector) Finish() (*RunStats, error) {
	if c == nil {
		return nil, nil
	}
	stats := c.Snapshot()
	c.mu.Lock()
	sinks := append([]Sink(nil), c.sinks...)
	c.mu.Unlock()
	var firstErr error
	for _, s := range sinks {
		if err := s.Flush(stats); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return stats, firstErr
}
