package discover

import (
	"crashresist/internal/defense"
	"crashresist/internal/metrics"
	"crashresist/internal/trace"
)

// runDetect adapts one run's pipeline/target to an optional shared
// defense.Detect observer, mirroring runProf: a zero-value runDetect (nil
// observer) makes every call a no-op, so detection points need no nil
// checks and cost nothing when detection is off. All feed methods fold
// commutatively into the observer, preserving worker-count and cache
// invariance; finish renders the section deterministically after every
// job has merged.
type runDetect struct {
	d                *defense.Detect
	pipeline, target string
}

// on reports whether detection is enabled for the run.
func (r runDetect) on() bool { return r.d != nil }

// primitive folds one primitive's measured probe totals into its
// detectability row.
func (r runDetect) primitive(name string, probes, faults, ticks uint64, profile map[uint64]uint64) {
	if r.d == nil {
		return
	}
	r.d.AddPrimitive(r.pipeline, r.target, name, probes, faults, ticks, profile)
}

// baseline folds the benign phase's fault series into the section baseline.
func (r runDetect) baseline(phase string, faults, ticks uint64, series map[uint64]uint64) {
	if r.d == nil {
		return
	}
	r.d.AddBaseline(r.pipeline, r.target, phase, faults, ticks, series)
}

// browseBaseline folds an instrumented browse's exception log, recorded
// with EnableExceptionLog, into the section baseline and the run stream.
func (r runDetect) browseBaseline(rec *trace.Recorder, ticks uint64) {
	if r.d == nil {
		return
	}
	series := defense.BucketExc(rec.Exceptions())
	var faults uint64
	for _, n := range series {
		faults += n
	}
	r.baseline("browse", faults, ticks, series)
	r.series(series)
}

// series folds a fault series into the run-level stream the online
// detector watches.
func (r runDetect) series(buckets map[uint64]uint64) {
	if r.d == nil {
		return
	}
	r.d.AddSeries(r.pipeline, r.target, buckets)
}

// finish renders the run's section, streams its detections as typed events
// (live stream first, then baseline trips), and attaches the section to
// the collector so RunStats carries it. Call after all stages merged and
// before col.Finish.
func (r runDetect) finish(col *metrics.Collector) {
	if r.d == nil {
		return
	}
	sec := r.d.Section(r.pipeline, r.target)
	if sec == nil {
		return
	}
	for _, ev := range sec.Events {
		col.Detection(ev)
	}
	if sec.Baseline != nil {
		for _, ev := range sec.Baseline.Events {
			col.Detection(ev)
		}
	}
	col.SetDetect(sec)
}
