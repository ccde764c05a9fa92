package metrics

// Hierarchical span trees: run → pipeline → stage → shard → job. The
// worker pool in internal/discover opens a shard span per worker lane and a
// job span per claimed job, so a finished RunStats carries the full
// execution tree of the analysis, exportable as a Chrome trace (chrome.go).
//
// Span IDs are a deterministic function of the span's tree path (parent ID,
// kind, name, index), so the same job has the same ID at any worker count;
// only the wall-clock fields and the shard a job landed on are
// scheduling-dependent. Spans live exclusively in RunStats — report
// formatters never read them, keeping golden tables byte-identical.

import (
	"fmt"
	"hash/fnv"
	"time"
)

// Span kinds, from root to leaf.
const (
	SpanRun      = "run"
	SpanPipeline = "pipeline"
	SpanStage    = "stage"
	SpanShard    = "shard"
	SpanJob      = "job"
)

// Span is one completed node of the run's span tree. Shard and Job are -1
// for levels the field does not apply to.
type Span struct {
	// ID is the span's deterministic identifier (hex).
	ID string `json:"id"`
	// Parent is the enclosing span's ID; empty for the root run span.
	Parent string `json:"parent,omitempty"`
	// Kind is run, pipeline, stage, shard or job.
	Kind string `json:"kind"`
	// Name is the span label (stage name, job key, ...).
	Name string `json:"name"`
	// Shard is the worker lane the span ran on (-1 above shard level).
	Shard int `json:"shard"`
	// Job is the job index within its stage (-1 above job level).
	Job int `json:"job"`
	// StartNS is the span's start, in nanoseconds since the run began.
	StartNS int64 `json:"start_ns"`
	// DurNS is the span's wall-clock duration.
	DurNS int64 `json:"dur_ns"`
}

// maxJobSpans bounds the job-level span records kept per run, so
// paper-scale fan-outs (tens of thousands of fuzz jobs) cannot balloon
// RunStats. Run, pipeline, stage and shard spans are never dropped;
// RunStats.SpansDropped counts the discarded job spans.
const maxJobSpans = 4096

// deriveSpanID hashes a span's tree path into its stable identifier.
func deriveSpanID(parent uint64, kind, name string, index int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(parent >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(name))
	h.Write([]byte{0})
	for i := range buf {
		buf[i] = byte(uint64(index) >> (8 * i))
	}
	h.Write(buf[:])
	id := h.Sum64()
	if id == 0 {
		id = 1
	}
	return id
}

// spanID renders an ID for the wire.
func spanID(id uint64) string { return fmt.Sprintf("%016x", id) }

// appendSpan records one completed span.
func (c *Collector) appendSpan(s Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, s)
}

// ShardSpan is one worker lane of a stage's pool run. Obtain via
// Stage.Shard; a nil *ShardSpan is a valid no-op receiver.
type ShardSpan struct {
	stage *Stage
	shard int
	id    uint64
	start time.Time
}

// Shard opens the span for worker lane w. The pool calls this once per
// worker; End must run when the lane finishes.
func (s *Stage) Shard(w int) *ShardSpan {
	if s == nil {
		return nil
	}
	return &ShardSpan{
		stage: s,
		shard: w,
		id:    deriveSpanID(s.id, SpanShard, s.name, w),
		start: time.Now(),
	}
}

// End closes the shard span, recording it in the run's span tree.
func (sh *ShardSpan) End() {
	if sh == nil {
		return
	}
	c := sh.stage.c
	c.appendSpan(Span{
		ID:      spanID(sh.id),
		Parent:  spanID(sh.stage.id),
		Kind:    SpanShard,
		Name:    fmt.Sprintf("%s/shard-%d", sh.stage.name, sh.shard),
		Shard:   sh.shard,
		Job:     -1,
		StartNS: sh.start.Sub(c.start).Nanoseconds(),
		DurNS:   time.Since(sh.start).Nanoseconds(),
	})
}

// JobSpan is one pool job's span. Obtain via ShardSpan.Job; a nil *JobSpan
// is a valid no-op receiver.
type JobSpan struct {
	shard *ShardSpan
	job   int
	name  string
	start time.Time
}

// Job opens the span for job index i on this lane. The job's ID derives
// from the stage (not the lane), so it is identical at any worker count;
// the Parent field records which lane actually ran it. Past the run's cap
// of maxJobSpans it counts the drop and returns nil, without naming the
// job: a dropped job costs no allocation.
func (sh *ShardSpan) Job(i int) *JobSpan {
	if sh == nil {
		return nil
	}
	c := sh.stage.c
	if c.jobSpans.Add(1) > maxJobSpans {
		c.spansDropped.Add(1)
		return nil
	}
	var name string
	if sh.stage.jobName != nil {
		name = sh.stage.jobName(i)
	} else {
		name = fmt.Sprintf("%s/job-%d", sh.stage.name, i)
	}
	return &JobSpan{shard: sh, job: i, name: name, start: time.Now()}
}

// End closes the job span.
func (j *JobSpan) End() {
	if j == nil {
		return
	}
	sh := j.shard
	c := sh.stage.c
	c.appendSpan(Span{
		ID:      spanID(deriveSpanID(sh.stage.id, SpanJob, j.name, j.job)),
		Parent:  spanID(sh.id),
		Kind:    SpanJob,
		Name:    j.name,
		Shard:   sh.shard,
		Job:     j.job,
		StartNS: j.start.Sub(c.start).Nanoseconds(),
		DurNS:   time.Since(j.start).Nanoseconds(),
	})
}

// NameJobs installs a job labeller for the stage's spans (API names, module
// names, syscall/arg keys). Call before fanning the stage out; without one,
// jobs are labelled "<stage>/job-<i>".
func (s *Stage) NameJobs(fn func(i int) string) {
	if s == nil {
		return
	}
	s.jobName = fn
}

// Observe records one job's deterministic virtual cost (emulator clock
// ticks, instructions or symbolic steps) in the stage's latency histogram.
// Safe from any worker goroutine; see hist.go for the determinism contract.
func (s *Stage) Observe(ticks uint64) {
	if s == nil {
		return
	}
	s.hist.Observe(ticks)
}
