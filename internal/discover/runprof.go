package discover

// Cost-attribution glue between the pipelines and the prof package. A
// Config optionally carries a *prof.Profile; runProf binds it to one
// run's pipeline and target so job bodies can charge their deterministic
// virtual costs with just (stage, unit, kind, n).
//
// Taps sit exactly where the pipelines already call span.Observe and the
// harvest helpers: the one place where a unit's identity and its
// deterministic cost coexist. Cache hits replay the costs stored in their
// entries (Steps, Stats, Clock), so a warm run charges the profile
// identically to the cold run that populated the cache, and every charge
// is a commutative addition on a per-job value, so profiles are
// byte-identical at any worker count.

import "crashresist/internal/prof"

// runProf charges one run's costs to a profile. The zero value (nil
// profile) records nothing, keeping unprofiled runs allocation-free.
type runProf struct {
	p        *prof.Profile
	pipeline string
	target   string
}

// add charges n units of kind k to pipeline;stage;target;unit.
func (r runProf) add(stage, unit string, k prof.Kind, n uint64) {
	if r.p == nil {
		return
	}
	r.p.Add(prof.Stack{Pipeline: r.pipeline, Stage: stage, Target: r.target, Unit: unit}, k, n)
}

// addSub is add with a drill-down sub-frame below the unit (for example
// the module a filter-class observation came from).
func (r runProf) addSub(stage, unit, sub string, k prof.Kind, n uint64) {
	if r.p == nil {
		return
	}
	r.p.Add(prof.Stack{Pipeline: r.pipeline, Stage: stage, Target: r.target, Unit: unit, Sub: sub}, k, n)
}
