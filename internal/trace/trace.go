// Package trace implements dynamic instrumentation over the M64 VM — the
// repository's stand-in for DynamoRIO in the paper's pipeline. A Recorder
// observes a process run and produces the artifacts the Windows-side
// analyses consume:
//
//   - API call harvesting: which imported APIs were invoked, from which call
//     sites, and how often (§V-B "logged all calls to target API functions");
//   - context tagging: whether a call's stack passes through a designated
//     module set, e.g. the JavaScript engine ("triggered from a JavaScript
//     context");
//   - guarded-region coverage: which SEH scope-table ranges were actually
//     executed (Table II's "on execution path" column);
//   - exception events with virtual timestamps, feeding the §VII-C
//     fault-rate anomaly detector.
package trace

import (
	"sort"

	"crashresist/internal/bin"
	"crashresist/internal/isa"
	"crashresist/internal/vm"
)

// APISite is one call site of an API function.
type APISite struct {
	PC     uint64
	Module string
	Count  uint64
}

// APIStats aggregates observations of one API function.
type APIStats struct {
	ID    uint32
	Count uint64
	Sites []APISite
	// FromContext reports whether at least one invocation had a call
	// stack passing through a context module (e.g. the JS engine).
	FromContext bool
}

// ExcEvent is one observed exception.
type ExcEvent struct {
	Clock     uint64
	TID       int
	Code      uint32
	Addr      uint64
	PC        uint64
	Unmapped  bool
	Handled   bool
	HandlerPC uint64
}

// ScopeKey identifies a scope-table entry within a process.
type ScopeKey struct {
	Module string
	Index  int
}

// Recorder implements vm.Tracer. Enable the pieces you need; everything is
// off by default to keep per-instruction overhead down.
type Recorder struct {
	proc *vm.Process

	// API harvesting.
	harvestAPIs bool
	apis        map[uint32]*APIStats
	contextMods map[string]bool

	// Guarded-region coverage: each executed PC's covering scopes are
	// found once, then the PC only counts executions. pcs maps a PC to
	// its counter, or to nil when no scope covers it.
	coverage bool
	covIndex []covModule
	pcs      map[uint64]*pcCoverage
	lastMod  int // cache for PC locality

	// Exception log.
	recordExceptions bool
	exceptions       []ExcEvent
}

type covModule struct {
	mod *bin.Module
	// order holds scope indices sorted by Begin for binary search.
	order []int
}

// pcCoverage counts a covered PC's executions.
type pcCoverage struct {
	scopes []ScopeKey
	count  uint64
}

var _ vm.Tracer = (*Recorder)(nil)

// NewRecorder creates an inactive recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		apis:        make(map[uint32]*APIStats),
		contextMods: make(map[string]bool),
		pcs:         make(map[uint64]*pcCoverage),
	}
}

// Attach installs the recorder as the process tracer. Call after all images
// are loaded so coverage indexing sees every module.
func (r *Recorder) Attach(p *vm.Process) {
	r.proc = p
	p.Tracer = r
	r.buildCoverageIndex()
}

// EnableAPIHarvest turns on API call logging.
func (r *Recorder) EnableAPIHarvest() { r.harvestAPIs = true }

// EnableCoverage turns on guarded-region coverage (per-instruction cost).
func (r *Recorder) EnableCoverage() { r.coverage = true }

// EnableExceptionLog turns on exception recording.
func (r *Recorder) EnableExceptionLog() { r.recordExceptions = true }

// AddContextModule marks a module as a calling-context tag source (e.g. the
// JS engine DLL). API calls whose stack includes a frame in this module are
// flagged FromContext.
func (r *Recorder) AddContextModule(name string) { r.contextMods[name] = true }

// APIs returns harvested API stats keyed by API id.
func (r *Recorder) APIs() map[uint32]*APIStats { return r.apis }

// ScopeHits returns execution counts per scope-table entry: each entry
// counts the instructions executed inside its guarded range. The map is a
// fresh snapshot.
func (r *Recorder) ScopeHits() map[ScopeKey]uint64 {
	hits := make(map[ScopeKey]uint64)
	for _, c := range r.pcs {
		if c == nil {
			continue
		}
		for _, k := range c.scopes {
			hits[k] += c.count
		}
	}
	return hits
}

// HitScopes returns the keys of scope entries seen on the execution path.
func (r *Recorder) HitScopes() []ScopeKey {
	hits := r.ScopeHits()
	out := make([]ScopeKey, 0, len(hits))
	for k := range hits {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Module != out[j].Module {
			return out[i].Module < out[j].Module
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// Exceptions returns the recorded exception events.
func (r *Recorder) Exceptions() []ExcEvent {
	out := make([]ExcEvent, len(r.exceptions))
	copy(out, r.exceptions)
	return out
}

// ResetExceptions clears the exception log (between workload phases).
func (r *Recorder) ResetExceptions() { r.exceptions = nil }

// OnInstruction implements vm.Tracer: guarded-region coverage.
func (r *Recorder) OnInstruction(t *vm.Thread, pc uint64, _ isa.Instruction) {
	if !r.coverage {
		return
	}
	c, seen := r.pcs[pc]
	if !seen {
		c = r.coverPC(pc)
		r.pcs[pc] = c
	}
	if c != nil {
		c.count++
	}
}

// OnCall implements vm.Tracer.
func (r *Recorder) OnCall(*vm.Thread, uint64, uint64) {}

// OnRet implements vm.Tracer.
func (r *Recorder) OnRet(*vm.Thread, uint64) {}

// OnAPICall implements vm.Tracer: API harvesting + context tagging.
func (r *Recorder) OnAPICall(t *vm.Thread, callPC uint64, id uint32) {
	if !r.harvestAPIs {
		return
	}
	st, ok := r.apis[id]
	if !ok {
		st = &APIStats{ID: id}
		r.apis[id] = st
	}
	st.Count++

	modName := ""
	if m, ok := r.proc.FindModule(callPC); ok {
		modName = m.Image.Name
	}
	found := false
	for i := range st.Sites {
		if st.Sites[i].PC == callPC {
			st.Sites[i].Count++
			found = true
			break
		}
	}
	if !found {
		st.Sites = append(st.Sites, APISite{PC: callPC, Module: modName, Count: 1})
	}

	if !st.FromContext && len(r.contextMods) > 0 {
		if r.stackInContext(t) {
			st.FromContext = true
		}
	}
}

// OnException implements vm.Tracer.
func (r *Recorder) OnException(t *vm.Thread, exc vm.Exception) {
	if !r.recordExceptions {
		return
	}
	r.exceptions = append(r.exceptions, ExcEvent{
		Clock:    r.proc.Clock,
		TID:      t.ID,
		Code:     exc.Code,
		Addr:     exc.Addr,
		PC:       exc.PC,
		Unmapped: exc.Unmapped,
	})
}

// OnExceptionHandled implements vm.Tracer.
func (r *Recorder) OnExceptionHandled(t *vm.Thread, exc vm.Exception, handlerPC uint64) {
	if !r.recordExceptions || len(r.exceptions) == 0 {
		return
	}
	// Mark the most recent matching unhandled event.
	for i := len(r.exceptions) - 1; i >= 0; i-- {
		ev := &r.exceptions[i]
		if ev.TID == t.ID && ev.PC == exc.PC && !ev.Handled {
			ev.Handled = true
			ev.HandlerPC = handlerPC
			return
		}
	}
}

// stackInContext reports whether any shadow frame of t lies inside a context
// module.
func (r *Recorder) stackInContext(t *vm.Thread) bool {
	for _, f := range t.Frames() {
		if m, ok := r.proc.FindModule(f.FuncEntry); ok && r.contextMods[m.Image.Name] {
			return true
		}
	}
	return false
}

func (r *Recorder) buildCoverageIndex() {
	r.covIndex = r.covIndex[:0]
	for _, m := range r.proc.Modules() {
		scopes := m.Image.Scopes
		if len(scopes) == 0 {
			continue
		}
		order := make([]int, len(scopes))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return scopes[order[a]].Begin < scopes[order[b]].Begin
		})
		r.covIndex = append(r.covIndex, covModule{mod: m, order: order})
	}
}

// coverPC finds the scope entries covering a PC, returning its new counter,
// or nil when no entry covers it.
func (r *Recorder) coverPC(pc uint64) *pcCoverage {
	if len(r.covIndex) == 0 {
		return nil
	}
	// Check the cached module first (strong PC locality).
	mi := -1
	if r.lastMod < len(r.covIndex) && r.covIndex[r.lastMod].mod.Contains(pc) {
		mi = r.lastMod
	} else {
		for i := range r.covIndex {
			if r.covIndex[i].mod.Contains(pc) {
				mi = i
				r.lastMod = i
				break
			}
		}
	}
	if mi < 0 {
		return nil
	}
	cm := &r.covIndex[mi]
	scopes := cm.mod.Image.Scopes
	off := cm.mod.OffsetOf(pc)

	// Binary search: first index in order with Begin > off; candidates are
	// before it.
	hi := sort.Search(len(cm.order), func(i int) bool {
		return scopes[cm.order[i]].Begin > off
	})
	var keys []ScopeKey
	for i := hi - 1; i >= 0; i-- {
		s := scopes[cm.order[i]]
		if s.End <= off {
			// Ranges can nest, so keep scanning until begins are
			// far behind; with mostly-disjoint generated scopes a
			// small lookback suffices.
			if hi-i > 8 {
				break
			}
			continue
		}
		keys = append(keys, ScopeKey{Module: cm.mod.Image.Name, Index: cm.order[i]})
	}
	if keys == nil {
		return nil
	}
	return &pcCoverage{scopes: keys}
}

// RatePerSecond computes the peak exception rate over a sliding window of
// the given width (in ticks), using kernel.TicksPerSecond-style scaling by
// the caller. It returns events-per-window maxima. Windows are half-open
// [t, t+window): an event exactly windowTicks after another starts a new
// window rather than joining the old one, matching the kernel's
// Clock/TicksPerSecond fault-bucket convention so detector math and the
// bucketed series agree on edge events.
func RatePerSecond(events []ExcEvent, windowTicks uint64) uint64 {
	if len(events) == 0 || windowTicks == 0 {
		return 0
	}
	var peak uint64
	lo := 0
	for hi := range events {
		for events[hi].Clock-events[lo].Clock >= windowTicks {
			lo++
		}
		if n := uint64(hi - lo + 1); n > peak {
			peak = n
		}
	}
	return peak
}
