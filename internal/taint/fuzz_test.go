package taint

import (
	"testing"

	"crashresist/internal/isa"
	"crashresist/internal/mem"
)

// refEngine is the reference model for Engine: per-thread state in a map
// keyed by TID, and every memory event walked a byte at a time, each byte
// looking its shadow page up on its own.
type refEngine struct {
	threads map[int]*threadState
	shadow  map[uint64]*[mem.PageSize]uint64
}

func newRef() *refEngine {
	return &refEngine{threads: make(map[int]*threadState), shadow: make(map[uint64]*[mem.PageSize]uint64)}
}

func (e *refEngine) thread(tid int) *threadState {
	ts, ok := e.threads[tid]
	if !ok {
		ts = &threadState{}
		e.threads[tid] = ts
	}
	return ts
}

// shadowByte returns a pointer to the label mask for one memory byte,
// allocating the shadow page if create is set; nil otherwise.
func (e *refEngine) shadowByte(addr uint64, create bool) *uint64 {
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

func (e *refEngine) CopyRegReg(tid int, dst, src isa.Register) {
	ts := e.thread(tid)
	ts.regs[dst] = ts.regs[src]
	ts.prov[dst] = ts.prov[src]
	ts.provOK[dst] = ts.provOK[src]
}

func (e *refEngine) SetRegImm(tid int, dst isa.Register) {
	ts := e.thread(tid)
	ts.regs[dst] = regTaint{}
	ts.provOK[dst] = false
}

func (e *refEngine) CombineReg(tid int, dst, src isa.Register) {
	ts := e.thread(tid)
	srcUnion := ts.regs[src].union()
	if srcUnion == 0 {
		return
	}
	for i := range ts.regs[dst] {
		ts.regs[dst][i] |= srcUnion
	}
}

func (e *refEngine) LoadMem(tid int, dst isa.Register, addr uint64, size int) {
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

func (e *refEngine) StoreMem(tid int, src isa.Register, addr uint64, size int) {
	ts := e.thread(tid)
	for i := 0; i < size && i < 8; i++ {
		label := ts.regs[src][i]
		if sb := e.shadowByte(addr+uint64(i), label != 0); sb != nil {
			*sb = label
		}
	}
}

func (e *refEngine) ClearMem(addr uint64, size int) {
	for i := 0; i < size; i++ {
		if sb := e.shadowByte(addr+uint64(i), false); sb != nil {
			*sb = 0
		}
	}
}

func (e *refEngine) MarkMem(label uint8, addr uint64, size int) {
	if label == 0 || label > MaxLabel {
		return
	}
	bit := uint64(1) << label
	for i := 0; i < size; i++ {
		*e.shadowByte(addr+uint64(i), true) |= bit
	}
}

func (e *refEngine) RegTaint(tid int, r isa.Register) uint64 {
	ts, ok := e.threads[tid]
	if !ok {
		return 0
	}
	return ts.regs[r].union()
}

func (e *refEngine) MemTaint(addr uint64, size int) uint64 {
	var m uint64
	for i := 0; i < size; i++ {
		if sb := e.shadowByte(addr+uint64(i), false); sb != nil {
			m |= *sb
		}
	}
	return m
}

func (e *refEngine) RegProvenance(tid int, r isa.Register) (uint64, bool) {
	ts, ok := e.threads[tid]
	if !ok || !ts.provOK[r] {
		return 0, false
	}
	return ts.prov[r], true
}

// The page boundaries fuzzed accesses fall near. Zero puts accesses at the
// top of the address space, whose bytes wrap to page zero.
var fuzzBoundaries = [...]uint64{0, 0x1000, 0x2000, 0x10000}

// fuzzThreads is how many TIDs the fuzzed ops use.
const fuzzThreads = 4

// taintReader decodes a fuzz input; past its end every read is zero.
type taintReader struct{ b []byte }

func (r *taintReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *taintReader) reg() isa.Register { return isa.Register(r.byte() % isa.NumRegisters) }

// addr decodes an address within 8 bytes of a page boundary.
func (r *taintReader) addr() uint64 {
	b := fuzzBoundaries[int(r.byte())%len(fuzzBoundaries)]
	return b + uint64(int64(r.byte()%16)-8)
}

// size decodes a register access width, 1 to 8 bytes.
func (r *taintReader) size() int { return int(r.byte()%8) + 1 }

// span decodes a range length of 1 byte to two pages.
func (r *taintReader) span() int {
	return (int(r.byte())|int(r.byte())<<8)%(2*mem.PageSize) + 1
}

// FuzzTaint decodes its input into LoadMem, StoreMem, ClearMem, MarkMem,
// CopyRegReg, CombineReg and SetRegImm events of four threads and sends
// each to an Engine and to refEngine. After every event the two must agree
// on RegTaint and RegProvenance of every register of every thread, and of
// a TID no event used, and on MemTaint of every byte within 16 of a fuzzed
// page boundary, of the 16 bytes around each boundary and of the event's
// own range; after the last event they must hold the same shadow pages.
// Accesses fall within 8 bytes of a page boundary, so most straddle two
// pages or wrap past the top of the address space.
//
// An event is an opcode byte (low three bits: the event, 7 being a second
// LoadMem; bits 3-4: the TID) and its operands: a register byte, a
// two-byte address (a boundary index and an offset from -8 to 7) and a
// size byte for LoadMem and StoreMem; an address and a little-endian u16
// length of up to two pages for ClearMem, after a label byte (0 to 64, of
// which 0 and 64 taint nothing) for MarkMem; register bytes for the rest.
// The seed corpus is testdata/fuzz/FuzzTaint.
func FuzzTaint(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		e, ref := New(), newRef()
		r := &taintReader{b: prog}
		for step := 0; len(r.b) > 0 && step < 64; step++ {
			op := r.byte()
			tid := int(op>>3) & 3
			addr, size := uint64(0), 0
			switch op & 7 {
			case 0, 7:
				dst, a, n := r.reg(), r.addr(), r.size()
				e.LoadMem(tid, dst, a, n)
				ref.LoadMem(tid, dst, a, n)
				addr, size = a, n
			case 1:
				src, a, n := r.reg(), r.addr(), r.size()
				e.StoreMem(tid, src, a, n)
				ref.StoreMem(tid, src, a, n)
				addr, size = a, n
			case 2:
				a, n := r.addr(), r.span()
				e.ClearMem(a, n)
				ref.ClearMem(a, n)
				addr, size = a, n
			case 3:
				label, a, n := r.byte()%65, r.addr(), r.span()
				e.MarkMem(label, a, n)
				ref.MarkMem(label, a, n)
				addr, size = a, n
			case 4:
				dst, src := r.reg(), r.reg()
				e.CopyRegReg(tid, dst, src)
				ref.CopyRegReg(tid, dst, src)
			case 5:
				dst, src := r.reg(), r.reg()
				e.CombineReg(tid, dst, src)
				ref.CombineReg(tid, dst, src)
			case 6:
				dst := r.reg()
				e.SetRegImm(tid, dst)
				ref.SetRegImm(tid, dst)
			}
			checkRegs(t, step, e, ref)
			checkMem(t, step, e, ref, addr, size)
		}
		checkShadow(t, e, ref)
	})
}

// checkRegs fails t unless e and ref agree on every register's taint and
// provenance in every fuzzed thread and in one no event used.
func checkRegs(t *testing.T, step int, e *Engine, ref *refEngine) {
	t.Helper()
	for tid := 0; tid <= fuzzThreads; tid++ {
		for r := isa.Register(0); r < isa.NumRegisters; r++ {
			if got, want := e.RegTaint(tid, r), ref.RegTaint(tid, r); got != want {
				t.Fatalf("step %d: RegTaint(%d, %v) = %#x, reference %#x", step, tid, r, got, want)
			}
			got, gotOK := e.RegProvenance(tid, r)
			want, wantOK := ref.RegProvenance(tid, r)
			if got != want || gotOK != wantOK {
				t.Fatalf("step %d: RegProvenance(%d, %v) = %#x, %v; reference %#x, %v", step, tid, r, got, gotOK, want, wantOK)
			}
		}
	}
}

// checkMem fails t unless e and ref agree on MemTaint of each byte within
// 16 of a fuzzed boundary, of the 16 bytes around each boundary and of the
// size bytes at addr.
func checkMem(t *testing.T, step int, e *Engine, ref *refEngine, addr uint64, size int) {
	t.Helper()
	for _, b := range fuzzBoundaries {
		for a := b - 16; a != b+16; a++ {
			if got, want := e.MemTaint(a, 1), ref.MemTaint(a, 1); got != want {
				t.Fatalf("step %d: MemTaint(%#x, 1) = %#x, reference %#x", step, a, got, want)
			}
		}
		if got, want := e.MemTaint(b-8, 16), ref.MemTaint(b-8, 16); got != want {
			t.Fatalf("step %d: MemTaint(%#x, 16) = %#x, reference %#x", step, b-8, got, want)
		}
	}
	if got, want := e.MemTaint(addr, size), ref.MemTaint(addr, size); got != want {
		t.Fatalf("step %d: MemTaint(%#x, %d) = %#x, reference %#x", step, addr, size, got, want)
	}
}

// checkShadow fails t unless e and ref hold shadows for the same pages,
// with the same labels.
func checkShadow(t *testing.T, e *Engine, ref *refEngine) {
	t.Helper()
	if len(e.shadow) != len(ref.shadow) {
		t.Fatalf("%d shadow pages, reference %d", len(e.shadow), len(ref.shadow))
	}
	for pn, want := range ref.shadow {
		if got, ok := e.shadow[pn]; !ok || *got != *want {
			t.Fatalf("shadow page %#x differs from the reference (present: %v)", pn*mem.PageSize, ok)
		}
	}
}
