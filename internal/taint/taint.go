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
	threads map[int]*threadState
	// shadow maps page index → per-byte label masks, allocated lazily.
	shadow map[uint64]*[mem.PageSize]uint64
}

var _ vm.DataFlow = (*Engine)(nil)

// New creates an empty taint engine.
func New() *Engine {
	return &Engine{
		threads: make(map[int]*threadState),
		shadow:  make(map[uint64]*[mem.PageSize]uint64),
	}
}

// Attach installs the engine as the process's data-flow sink.
func (e *Engine) Attach(p *vm.Process) { p.Flow = e }

// Reset clears all taint and provenance state.
func (e *Engine) Reset() {
	e.threads = make(map[int]*threadState)
	e.shadow = make(map[uint64]*[mem.PageSize]uint64)
}

func (e *Engine) thread(tid int) *threadState {
	ts, ok := e.threads[tid]
	if !ok {
		ts = &threadState{}
		e.threads[tid] = ts
	}
	return ts
}

// shadowByte returns a pointer to the label mask for one memory byte,
// allocating the shadow page if create is set; nil otherwise.
func (e *Engine) shadowByte(addr uint64, create bool) *uint64 {
	pg, ok := e.shadow[addr/mem.PageSize]
	if !ok {
		if !create {
			return nil
		}
		pg = &[mem.PageSize]uint64{}
		e.shadow[addr/mem.PageSize] = pg
	}
	return &pg[addr%mem.PageSize]
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
	for i := 0; i < size && i < 8; i++ {
		if sb := e.shadowByte(addr+uint64(i), false); sb != nil {
			rt[i] = *sb
		}
	}
	ts.regs[dst] = rt
	ts.prov[dst] = addr
	ts.provOK[dst] = true
}

// StoreMem implements vm.DataFlow: memory bytes take the register's lane
// labels.
func (e *Engine) StoreMem(tid int, src isa.Register, addr uint64, size int) {
	ts := e.thread(tid)
	for i := 0; i < size && i < 8; i++ {
		label := ts.regs[src][i]
		if sb := e.shadowByte(addr+uint64(i), label != 0); sb != nil {
			*sb = label
		}
	}
}

// ClearMem implements vm.DataFlow.
func (e *Engine) ClearMem(addr uint64, size int) {
	for i := 0; i < size; i++ {
		if sb := e.shadowByte(addr+uint64(i), false); sb != nil {
			*sb = 0
		}
	}
}

// MarkMem implements vm.DataFlow: taints [addr, addr+size) with the label.
func (e *Engine) MarkMem(label uint8, addr uint64, size int) {
	if label == 0 || label > MaxLabel {
		return
	}
	bit := uint64(1) << label
	for i := 0; i < size; i++ {
		sb := e.shadowByte(addr+uint64(i), true)
		*sb |= bit
	}
}

// RegTaint returns the union mask of all lanes of a register.
func (e *Engine) RegTaint(tid int, r isa.Register) uint64 {
	ts, ok := e.threads[tid]
	if !ok {
		return 0
	}
	return ts.regs[r].union()
}

// MemTaint returns the union mask of a byte range.
func (e *Engine) MemTaint(addr uint64, size int) uint64 {
	var m uint64
	for i := 0; i < size; i++ {
		if sb := e.shadowByte(addr+uint64(i), false); sb != nil {
			m |= *sb
		}
	}
	return m
}

// RegProvenance returns the memory address register r was last loaded from,
// if any. Surviving through MOV and pointer arithmetic, this is where an
// attacker's write primitive must aim to influence the register's next
// value.
func (e *Engine) RegProvenance(tid int, r isa.Register) (uint64, bool) {
	ts, ok := e.threads[tid]
	if !ok || !ts.provOK[r] {
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
