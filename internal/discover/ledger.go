package discover

// The run ledger: one charge per unit of work. A corrupted-suite replay, a
// fuzzing battery, a controllability replay, a per-DLL symex job, a benign
// suite run or browse, a cache lookup or store, and a failed job attempt
// each hand their deterministic costs to the run in one charge, and
// pipelineRun.charge folds that charge into every observer at once: the
// run's counters and fault-event series, the stage's latency histogram,
// the cost profile and the run's detection observer. A pool job's body
// only returns its charge: fanOut attributes it to the job's stage, unit
// and stage span, cachedUnit charges the job's cache traffic and runJob
// its failed attempts, all under the same unit name.
//
// Every fold is a commutative addition of a per-unit value, so all
// observers are identical at any worker count. A cache hit charges the
// cost its entry stores, so they are identical with the cache off, cold or
// warm too (cache traffic itself aside). Charges fold when they are made,
// so a run holds only sums, never its units' charges: memory stays flat
// however many units a run has (the paper-scale funnel makes 11,521 fuzz
// charges).

import (
	"fmt"

	"crashresist/internal/fuzz"
	"crashresist/internal/kernel"
	"crashresist/internal/metrics"
	"crashresist/internal/prof"
	"crashresist/internal/sym"
	"crashresist/internal/vm"
)

// charge is one unit of work's deterministic cost. Zero fields charge
// nothing.
type charge struct {
	// stage and unit attribute the costs: the profile stack is
	// pipeline;stage;target;unit.
	stage, unit string
	// span, when set, receives sample in its latency histogram: the unit's
	// headline cost (clock ticks, instructions or symbolic steps).
	span   *metrics.Stage
	sample uint64

	// clock is the virtual clock of the unit's process.
	clock uint64
	vm    vm.Stats
	kern  kernel.Counts
	// probes is a fuzzing battery. Each probe's instructions are profiled
	// under its own pointer sub-frame instead of vm.Instructions.
	probes []fuzz.Probe
	// classSteps are a symex job's symbolic steps per filter class. The
	// class axis is where symex cost concentrates (the corpus spreads its
	// filter idioms evenly over modules), so the profile puts the class
	// on the unit frame and the module, the charge's unit, below it.
	classSteps map[string]uint64
	// symCache is the symex stage's shared filter-cache tally.
	symCache sym.CacheStats

	// A failed job attempt: injected at the pool.job site, retried after
	// backoff ticks, or degraded.
	injected, retries, backoff, degraded uint64
	// Persistent-cache traffic.
	cacheHits, cacheMisses, cacheBad, cacheBytes uint64

	// sight is what the unit shows the detector panel.
	sight sighting
}

// sighting is one unit's detection input: a primitive's probe totals or a
// benign phase's baseline, plus its share of the run-level fault stream.
type sighting struct {
	// primitive names the detectability row the unit's probes feed; phase
	// names the benign phase whose baseline the unit is.
	primitive, phase      string
	probes, faults, ticks uint64
	// series is the row's fault profile or the baseline's fault series.
	series map[uint64]uint64
	// stream joins the run-level series the online detector watches.
	stream map[uint64]uint64
}

// charge folds one unit's costs into the run's observers. Safe from any
// worker goroutine.
func (r *pipelineRun) charge(c charge) {
	if c.span != nil {
		c.span.Observe(c.sample)
	}
	col := r.col
	col.AddVM(c.vm)
	col.Add(metrics.CtrEFAULTReturns, c.kern.EFAULTReturns)
	col.Add(metrics.CtrFaultsInjected, c.kern.Injected+c.injected)
	col.AddFaultEvents(c.kern.EFAULTBuckets)
	col.Add(metrics.CtrProbes, uint64(len(c.probes)))
	col.Add(metrics.CtrSymexCacheHits, uint64(c.symCache.Hits))
	col.Add(metrics.CtrSymexCacheMisses, uint64(c.symCache.Misses))
	col.Add(metrics.CtrSymexCacheUncacheable, uint64(c.symCache.Uncacheable))
	col.Add(metrics.CtrRetries, c.retries)
	col.Add(metrics.CtrBackoffTicks, c.backoff)
	col.Add(metrics.CtrDegraded, c.degraded)
	col.Add(metrics.CtrCacheHits, c.cacheHits)
	col.Add(metrics.CtrCacheMisses, c.cacheMisses)
	col.Add(metrics.CtrCacheBadEntries, c.cacheBad)
	col.Add(metrics.CtrCacheBytes, c.cacheBytes)

	if p := r.Profile; p != nil {
		st := prof.Stack{Pipeline: r.pipeline, Stage: c.stage, Target: r.target, Unit: c.unit}
		p.Add(st, prof.KindClockTicks, c.clock)
		if len(c.probes) == 0 {
			p.Add(st, prof.KindVMInstructions, c.vm.Instructions)
		}
		for _, pr := range c.probes {
			sub := st
			sub.Sub = fmt.Sprintf("ptr:%#x", pr.Pointer)
			p.Add(sub, prof.KindVMInstructions, pr.Instructions)
		}
		for class, n := range c.classSteps {
			p.Add(prof.Stack{Pipeline: r.pipeline, Stage: c.stage, Target: r.target, Unit: class, Sub: c.unit},
				prof.KindSymexSteps, n)
		}
		p.Add(st, prof.KindRetries, c.retries)
		p.Add(st, prof.KindBackoffTicks, c.backoff)
		p.Add(st, prof.KindCacheBytes, c.cacheBytes)
	}

	if d, s := r.det, c.sight; d != nil {
		if s.primitive != "" {
			d.AddPrimitive(r.pipeline, r.target, s.primitive, s.probes, s.faults, s.ticks, s.series)
		}
		if s.phase != "" {
			d.AddBaseline(r.pipeline, r.target, s.phase, s.faults, s.ticks, s.series)
		}
		d.AddSeries(r.pipeline, r.target, s.stream)
	}
}
