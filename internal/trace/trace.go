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
	"crashresist/internal/mem"
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

	// Guarded-region coverage counts executions per PC and folds them
	// into scopes only when ScopeHits reads them. A PC that its module's
	// predecoded tables number counts in the module's counters; any other
	// PC (text rewritten so an instruction starts mid-instruction, an
	// instruction straddling a page, code outside every image) counts in
	// pcs, which also takes a counter's carry when it wraps.
	coverage bool
	covIndex []covModule // every module, by base
	cur      *covModule  // the module of the latest PC off the cached page
	pcs      map[uint64]uint64
	// pageVA, page and counts cache the text page of the latest counted
	// PC: its address, its table and its module's counters. page is
	// noPage until a PC is counted.
	pageVA uint64
	page   *isa.Table
	counts []uint32
	// referenceCoverage counts every PC in pcs, the reference path the
	// differential tests compare the counters against.
	referenceCoverage bool

	// Exception log.
	recordExceptions bool
	exceptions       []ExcEvent
}

type covModule struct {
	mod *bin.Module
	// order holds scope indices sorted by Begin for binary search; it is
	// nil when no scope guards the module.
	order []int
	// base and text bound the module's text, [base, base+text); code is
	// its predecoded tables and counts its counters, one per numbered
	// instruction, allocated on the module's first counted PC.
	base, text uint64
	code       []isa.Table
	counts     []uint32
}

var _ vm.Tracer = (*Recorder)(nil)

// noPage is an empty table: it numbers no PC.
var noPage isa.Table

// NewRecorder creates an inactive recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		apis:        make(map[uint32]*APIStats),
		contextMods: make(map[string]bool),
		pcs:         make(map[uint64]uint64),
		page:        &noPage,
	}
}

// Attach installs the recorder as the process tracer. Call after all images
// are loaded so coverage indexing sees every module; coverage counts start
// from zero.
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
	var keys []ScopeKey
	add := func(pc, n uint64) {
		keys = r.coverPC(pc, keys[:0])
		for _, k := range keys {
			hits[k] += n
		}
	}
	for i := range r.covIndex {
		m := &r.covIndex[i]
		if m.counts == nil {
			continue
		}
		for pg := range m.code {
			t := &m.code[pg]
			for off := uint64(0); off < uint64(t.Len()); off++ {
				if n, ok := t.Num(off); ok && m.counts[n] != 0 {
					add(m.base+uint64(pg)*mem.PageSize+off, uint64(m.counts[n]))
				}
			}
		}
	}
	for pc, n := range r.pcs {
		add(pc, n)
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
func (r *Recorder) OnInstruction(_ *vm.Thread, pc uint64, _ isa.Instruction) {
	if !r.coverage {
		return
	}
	// The page of the latest counted PC answers most PCs.
	if off := pc - r.pageVA; off < mem.PageSize {
		if n, ok := r.page.Num(off); ok {
			if c := r.counts[n] + 1; c != 0 {
				r.counts[n] = c
				return
			}
		}
	}
	r.count(pc)
}

// count counts a PC the cached page does not: it finds the PC's module,
// through a one-module cache and a binary search, and its page, which
// it caches, counts the PC in the module's counters, carrying into pcs
// when its counter wraps, and counts a PC no table numbers in pcs.
func (r *Recorder) count(pc uint64) {
	if !r.referenceCoverage {
		m := r.cur
		if m == nil || pc-m.base >= m.text {
			i := r.moduleAt(pc)
			if i < 0 || pc-r.covIndex[i].base >= r.covIndex[i].text {
				r.pcs[pc]++
				return
			}
			m = &r.covIndex[i]
			r.cur = m
		}
		if m.order == nil {
			return // no scope can cover the PC
		}
		off := pc - m.base
		page := &m.code[off/mem.PageSize]
		if n, ok := page.Num(off % mem.PageSize); ok {
			if m.counts == nil {
				m.counts = make([]uint32, m.code[len(m.code)-1].End())
			}
			r.pageVA, r.page, r.counts = pc-off%mem.PageSize, page, m.counts
			if m.counts[n]++; m.counts[n] == 0 {
				r.pcs[pc] += 1 << 32 // the counter wrapped
			}
			return
		}
	}
	r.pcs[pc]++
}

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
	r.covIndex, r.cur = r.covIndex[:0], nil
	r.pageVA, r.page, r.counts = 0, &noPage, nil
	clear(r.pcs)
	for _, m := range r.proc.Modules() {
		cm := covModule{mod: m, base: m.Base, text: uint64(len(m.Image.Text)), code: m.Image.Code()}
		if scopes := m.Image.Scopes; len(scopes) > 0 {
			cm.order = make([]int, len(scopes))
			for i := range cm.order {
				cm.order[i] = i
			}
			sort.Slice(cm.order, func(a, b int) bool {
				return scopes[cm.order[a]].Begin < scopes[cm.order[b]].Begin
			})
		}
		r.covIndex = append(r.covIndex, cm)
	}
	sort.Slice(r.covIndex, func(a, b int) bool { return r.covIndex[a].base < r.covIndex[b].base })
}

// moduleAt returns the index in covIndex of the module with the highest
// base at or below pc, or -1. Modules do not overlap, so it is the only
// module that can contain pc.
func (r *Recorder) moduleAt(pc uint64) int {
	return sort.Search(len(r.covIndex), func(i int) bool { return r.covIndex[i].base > pc }) - 1
}

// coverPC appends the keys of the scope entries covering a PC to keys.
func (r *Recorder) coverPC(pc uint64, keys []ScopeKey) []ScopeKey {
	mi := r.moduleAt(pc)
	if mi < 0 || !r.covIndex[mi].mod.Contains(pc) || r.covIndex[mi].order == nil {
		return keys
	}
	cm := &r.covIndex[mi]
	scopes := cm.mod.Image.Scopes
	off := cm.mod.OffsetOf(pc)

	// Binary search: first index in order with Begin > off; candidates are
	// before it.
	hi := sort.Search(len(cm.order), func(i int) bool {
		return scopes[cm.order[i]].Begin > off
	})
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
	return keys
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
