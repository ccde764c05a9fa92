// Package taint implements byte-granular dynamic data-flow tracking over the
// M64 VM, in the style of libdft extended with byte-granular labels — the
// engine the paper's Linux syscall pipeline runs server test suites under.
//
// Labels are bit positions in a 64-bit mask; the kernel assigns one label per
// client connection, so a register's taint mask answers "bytes from which
// connections influenced this value". The engine additionally tracks
// register provenance — the memory address a register's value was last
// loaded from — which the discovery pipeline's validation stage uses to
// corrupt the *stored* pointer rather than a transient register, mirroring a
// real attacker's memory write primitive.
//
// The propagation policy is libdft's: direct copies and arithmetic combine
// labels; implicit flows (through control dependencies) are not tracked.
package taint

import (
	"slices"

	"crashresist/internal/isa"
	"crashresist/internal/mem"
	"crashresist/internal/vm"
)

// MaxLabel is the highest usable taint label (bit position in the mask).
const MaxLabel = 63

// regTaint is the per-register byte-lane taint state.
type regTaint [8]uint64

func (r *regTaint) union() uint64 {
	var m uint64
	for _, l := range r {
		m |= l
	}
	return m
}

type threadState struct {
	regs [isa.NumRegisters]regTaint
	// prov[r] is the address register r was last loaded from, if provOK.
	prov   [isa.NumRegisters]uint64
	provOK [isa.NumRegisters]bool
}

// Engine is a byte-granular taint tracker. It implements vm.DataFlow.
type Engine struct {
	// threads is indexed by TID, which the VM hands out densely from
	// zero; an entry is nil until its thread's first event.
	threads []*threadState
	// shadow maps page index → per-byte label masks, allocated lazily.
	// A memory event looks it up once per page it touches, and not at
	// all while it is empty.
	shadow map[uint64]*[mem.PageSize]uint64
}

var _ vm.DataFlow = (*Engine)(nil)

// New creates an empty taint engine.
func New() *Engine {
	return &Engine{shadow: make(map[uint64]*[mem.PageSize]uint64)}
}

// Attach installs the engine as the process's data-flow sink.
func (e *Engine) Attach(p *vm.Process) { p.Flow = e }

// Reset clears all taint and provenance state.
func (e *Engine) Reset() {
	e.threads = nil
	e.shadow = make(map[uint64]*[mem.PageSize]uint64)
}

func (e *Engine) thread(tid int) *threadState {
	if ts := e.known(tid); ts != nil {
		return ts
	}
	if tid >= len(e.threads) {
		e.threads = append(e.threads, make([]*threadState, tid+1-len(e.threads))...)
	}
	ts := &threadState{}
	e.threads[tid] = ts
	return ts
}

// known returns the thread's state, or nil before its first event.
func (e *Engine) known(tid int) *threadState {
	if tid < 0 || tid >= len(e.threads) {
		return nil
	}
	return e.threads[tid]
}

// span returns the shadow of the page holding addr, nil when it has none,
// addr's offset on that page, and how many of the n bytes from addr lie on
// it. An access walks its bytes a span at a time; past the top of the
// address space its addresses wrap to page zero, as byte addresses do.
func (e *Engine) span(addr uint64, n int) (pg *[mem.PageSize]uint64, off uint64, k int) {
	off = addr % mem.PageSize
	k = min(n, int(mem.PageSize-off))
	if len(e.shadow) != 0 {
		pg = e.shadow[addr/mem.PageSize]
	}
	return pg, off, k
}

// newPage gives the page holding addr a shadow and returns it.
func (e *Engine) newPage(addr uint64) *[mem.PageSize]uint64 {
	pg := &[mem.PageSize]uint64{}
	e.shadow[addr/mem.PageSize] = pg
	return pg
}

// CopyRegReg implements vm.DataFlow: dst = src copies lanes and provenance.
func (e *Engine) CopyRegReg(tid int, dst, src isa.Register) {
	ts := e.thread(tid)
	ts.regs[dst] = ts.regs[src]
	ts.prov[dst] = ts.prov[src]
	ts.provOK[dst] = ts.provOK[src]
}

// SetRegImm implements vm.DataFlow: constants clear taint and provenance.
func (e *Engine) SetRegImm(tid int, dst isa.Register) {
	ts := e.thread(tid)
	ts.regs[dst] = regTaint{}
	ts.provOK[dst] = false
}

// CombineReg implements vm.DataFlow: binary ALU ops merge the source's
// labels into every destination lane (conservative cross-lane smear, since
// carries and shifts move bits across byte lanes). Provenance survives:
// pointer arithmetic on a loaded pointer still originates at the load.
func (e *Engine) CombineReg(tid int, dst, src isa.Register) {
	ts := e.thread(tid)
	srcUnion := ts.regs[src].union()
	if srcUnion == 0 {
		return
	}
	for i := range ts.regs[dst] {
		ts.regs[dst][i] |= srcUnion
	}
}

// LoadMem implements vm.DataFlow: dst lanes take the shadow of the loaded
// bytes; upper lanes clear (loads zero-extend). Provenance records the load
// address.
func (e *Engine) LoadMem(tid int, dst isa.Register, addr uint64, size int) {
	ts := e.thread(tid)
	var rt regTaint
	n := min(size, 8)
	for i := 0; i < n; {
		pg, off, k := e.span(addr+uint64(i), n-i)
		if pg != nil {
			copy(rt[i:i+k], pg[off:])
		}
		i += k
	}
	ts.regs[dst] = rt
	ts.prov[dst] = addr
	ts.provOK[dst] = true
}

// StoreMem implements vm.DataFlow: memory bytes take the register's lane
// labels. A page without a shadow gets one only when a lane stored on it
// is labelled.
func (e *Engine) StoreMem(tid int, src isa.Register, addr uint64, size int) {
	ts := e.thread(tid)
	n := min(size, 8)
	for i := 0; i < n; {
		a := addr + uint64(i)
		pg, off, k := e.span(a, n-i)
		lanes := ts.regs[src][i : i+k]
		if pg == nil && slices.ContainsFunc(lanes, func(l uint64) bool { return l != 0 }) {
			pg = e.newPage(a)
		}
		if pg != nil {
			copy(pg[off:], lanes)
		}
		i += k
	}
}

// ClearMem implements vm.DataFlow.
func (e *Engine) ClearMem(addr uint64, size int) {
	for i := 0; i < size; {
		pg, off, k := e.span(addr+uint64(i), size-i)
		if pg != nil {
			clear(pg[off : off+uint64(k)])
		}
		i += k
	}
}

// MarkMem implements vm.DataFlow: taints [addr, addr+size) with the label.
func (e *Engine) MarkMem(label uint8, addr uint64, size int) {
	if label == 0 || label > MaxLabel {
		return
	}
	bit := uint64(1) << label
	for i := 0; i < size; {
		a := addr + uint64(i)
		pg, off, k := e.span(a, size-i)
		if pg == nil {
			pg = e.newPage(a)
		}
		marked := pg[off : off+uint64(k)]
		for j := range marked {
			marked[j] |= bit
		}
		i += k
	}
}

// RegTaint returns the union mask of all lanes of a register.
func (e *Engine) RegTaint(tid int, r isa.Register) uint64 {
	ts := e.known(tid)
	if ts == nil {
		return 0
	}
	return ts.regs[r].union()
}

// MemTaint returns the union mask of a byte range.
func (e *Engine) MemTaint(addr uint64, size int) uint64 {
	var m uint64
	for i := 0; i < size; {
		pg, off, k := e.span(addr+uint64(i), size-i)
		if pg != nil {
			for _, l := range pg[off : off+uint64(k)] {
				m |= l
			}
		}
		i += k
	}
	return m
}

// RegProvenance returns the memory address register r was last loaded from,
// if any. Surviving through MOV and pointer arithmetic, this is where an
// attacker's write primitive must aim to influence the register's next
// value.
func (e *Engine) RegProvenance(tid int, r isa.Register) (uint64, bool) {
	ts := e.known(tid)
	if ts == nil || !ts.provOK[r] {
		return 0, false
	}
	return ts.prov[r], true
}

// LabelMask returns the mask bit for a label.
func LabelMask(label uint8) uint64 {
	if label == 0 || label > MaxLabel {
		return 0
	}
	return uint64(1) << label
}

// HasLabel reports whether the mask contains the label.
func HasLabel(mask uint64, label uint8) bool {
	return mask&LabelMask(label) != 0
}
