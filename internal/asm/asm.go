// Package asm provides a programmatic two-pass assembler for building CRX
// images: label-based control flow, data and BSS symbols, import and export
// tables, data-pointer relocations, and SEH-style guarded regions.
//
// Every synthetic target in this repository — the five server programs, the
// browser models and the 187-DLL system corpus — is written against this
// builder, which guarantees that the produced metadata (scope tables,
// symbols, imports) is structurally valid before any analysis runs on it.
package asm

import (
	"fmt"

	"crashresist/internal/bin"
	"crashresist/internal/isa"
	"crashresist/internal/mem"
)

// CatchAll is the filter label that marks a guarded region as catching every
// exception class (scope-table filter field = 1).
const CatchAll = "\x00catch-all"

type refKind uint8

const (
	refNone refKind = iota
	refCode         // Disp = code label offset - next pc (branches, LEA of code)
	refData         // Disp = data/bss symbol flat offset - next pc (LEA of data)
	refImm          // Disp already final
)

type entry struct {
	ins  isa.Instruction
	kind refKind
	ref  string
	off  uint32 // assigned in layout pass
}

type scopeRef struct {
	fn, begin, end, filter, target string
}

type relocRef struct {
	dataSym string // reloc lives at this data symbol
	add     uint32 // plus this many bytes
	target  string // code label or data symbol whose flat offset is written
}

// Builder accumulates code and data for one image.
type Builder struct {
	name      string
	kind      bin.Kind
	entries   []entry
	codeSyms  map[string]int // label → entry index
	codeOrder []string

	data     []byte
	dataSyms map[string]uint32 // symbol → offset within data section
	bssSyms  map[string]uint32 // symbol → offset within bss
	bssSize  uint32

	imports   []bin.Import
	importIdx map[string]int

	exports map[string]string // export name → label or data symbol
	// exportNames lists the export names in the order first declared,
	// which Build resolves them in.
	exportNames []string
	funcs       []funcSpan
	scopes      []scopeRef
	relocs      []relocRef
	entry       string

	err error
}

type funcSpan struct {
	name       string
	start, end int // entry index range
}

// NewBuilder creates a builder for an image with the given name and kind.
func NewBuilder(name string, kind bin.Kind) *Builder {
	return &Builder{
		name:      name,
		kind:      kind,
		codeSyms:  make(map[string]int),
		dataSyms:  make(map[string]uint32),
		bssSyms:   make(map[string]uint32),
		importIdx: make(map[string]int),
		exports:   make(map[string]string),
	}
}

// fail records the first error; subsequent calls keep the original.
func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Label defines a code label at the current position.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.codeSyms[name]; dup {
		b.fail("duplicate label %q", name)
		return b
	}
	b.codeSyms[name] = len(b.entries)
	b.codeOrder = append(b.codeOrder, name)
	return b
}

// Func starts a function: defines a label and records a symbol span until the
// matching EndFunc.
func (b *Builder) Func(name string) *Builder {
	b.Label(name)
	b.funcs = append(b.funcs, funcSpan{name: name, start: len(b.entries), end: -1})
	return b
}

// EndFunc closes the most recently opened function span.
func (b *Builder) EndFunc() *Builder {
	for i := len(b.funcs) - 1; i >= 0; i-- {
		if b.funcs[i].end < 0 {
			b.funcs[i].end = len(b.entries)
			return b
		}
	}
	b.fail("EndFunc without Func")
	return b
}

// Entry marks the label used as the executable's entry point.
func (b *Builder) Entry(label string) *Builder {
	b.entry = label
	return b
}

// Export exposes a code label or data/BSS symbol under the given name.
func (b *Builder) Export(name, label string) *Builder {
	if _, ok := b.exports[name]; !ok {
		b.exportNames = append(b.exportNames, name)
	}
	b.exports[name] = label
	return b
}

// emit appends a raw instruction.
func (b *Builder) emit(ins isa.Instruction) *Builder {
	b.entries = append(b.entries, entry{ins: ins, kind: refImm})
	return b
}

// emitRef appends an instruction whose Disp is patched from a symbol.
func (b *Builder) emitRef(ins isa.Instruction, kind refKind, ref string) *Builder {
	b.entries = append(b.entries, entry{ins: ins, kind: kind, ref: ref})
	return b
}

// --- plain instructions ---

// Nop emits nop.
func (b *Builder) Nop() *Builder { return b.emit(isa.Instruction{Op: isa.OpNop}) }

// Halt emits halt.
func (b *Builder) Halt() *Builder { return b.emit(isa.Instruction{Op: isa.OpHalt}) }

// Ret emits ret.
func (b *Builder) Ret() *Builder { return b.emit(isa.Instruction{Op: isa.OpRet}) }

// Syscall emits syscall.
func (b *Builder) Syscall() *Builder { return b.emit(isa.Instruction{Op: isa.OpSyscall}) }

// Yield emits yield.
func (b *Builder) Yield() *Builder { return b.emit(isa.Instruction{Op: isa.OpYield}) }

// Push emits push r.
func (b *Builder) Push(r isa.Register) *Builder { return b.emit(isa.Instruction{Op: isa.OpPush, A: r}) }

// Pop emits pop r.
func (b *Builder) Pop(r isa.Register) *Builder { return b.emit(isa.Instruction{Op: isa.OpPop, A: r}) }

// Not emits not r.
func (b *Builder) Not(r isa.Register) *Builder { return b.emit(isa.Instruction{Op: isa.OpNot, A: r}) }

// Neg emits neg r.
func (b *Builder) Neg(r isa.Register) *Builder { return b.emit(isa.Instruction{Op: isa.OpNeg, A: r}) }

// MovRR emits mov dst, src.
func (b *Builder) MovRR(dst, src isa.Register) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpMovRR, A: dst, B: src})
}

// MovRI emits mov dst, imm64.
func (b *Builder) MovRI(dst isa.Register, imm uint64) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpMovRI, A: dst, Imm: imm})
}

// AddRR emits add dst, src.
func (b *Builder) AddRR(dst, src isa.Register) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpAddRR, A: dst, B: src})
}

// SubRR emits sub dst, src.
func (b *Builder) SubRR(dst, src isa.Register) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpSubRR, A: dst, B: src})
}

// AndRR emits and dst, src.
func (b *Builder) AndRR(dst, src isa.Register) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpAndRR, A: dst, B: src})
}

// OrRR emits or dst, src.
func (b *Builder) OrRR(dst, src isa.Register) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpOrRR, A: dst, B: src})
}

// XorRR emits xor dst, src.
func (b *Builder) XorRR(dst, src isa.Register) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpXorRR, A: dst, B: src})
}

// MulRR emits mul dst, src.
func (b *Builder) MulRR(dst, src isa.Register) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpMulRR, A: dst, B: src})
}

// DivRR emits div dst, src.
func (b *Builder) DivRR(dst, src isa.Register) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpDivRR, A: dst, B: src})
}

// ShlRR emits shl dst, src.
func (b *Builder) ShlRR(dst, src isa.Register) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpShlRR, A: dst, B: src})
}

// ShrRR emits shr dst, src.
func (b *Builder) ShrRR(dst, src isa.Register) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpShrRR, A: dst, B: src})
}

// AddRI emits add dst, imm32.
func (b *Builder) AddRI(dst isa.Register, imm int32) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpAddRI, A: dst, Disp: imm})
}

// SubRI emits sub dst, imm32.
func (b *Builder) SubRI(dst isa.Register, imm int32) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpSubRI, A: dst, Disp: imm})
}

// AndRI emits and dst, imm32.
func (b *Builder) AndRI(dst isa.Register, imm int32) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpAndRI, A: dst, Disp: imm})
}

// OrRI emits or dst, imm32.
func (b *Builder) OrRI(dst isa.Register, imm int32) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpOrRI, A: dst, Disp: imm})
}

// XorRI emits xor dst, imm32.
func (b *Builder) XorRI(dst isa.Register, imm int32) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpXorRI, A: dst, Disp: imm})
}

// MulRI emits mul dst, imm32.
func (b *Builder) MulRI(dst isa.Register, imm int32) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpMulRI, A: dst, Disp: imm})
}

// ShlRI emits shl dst, imm32.
func (b *Builder) ShlRI(dst isa.Register, imm int32) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpShlRI, A: dst, Disp: imm})
}

// ShrRI emits shr dst, imm32.
func (b *Builder) ShrRI(dst isa.Register, imm int32) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpShrRI, A: dst, Disp: imm})
}

// CmpRR emits cmp a, b.
func (b *Builder) CmpRR(x, y isa.Register) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpCmpRR, A: x, B: y})
}

// CmpRI emits cmp a, imm32.
func (b *Builder) CmpRI(x isa.Register, imm int32) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpCmpRI, A: x, Disp: imm})
}

// TestRR emits test a, b.
func (b *Builder) TestRR(x, y isa.Register) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpTestRR, A: x, B: y})
}

// TestRI emits test a, imm32.
func (b *Builder) TestRI(x isa.Register, imm int32) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpTestRI, A: x, Disp: imm})
}

// Load emits a load of the given width: dst = mem[base+disp].
func (b *Builder) Load(size int, dst, base isa.Register, disp int32) *Builder {
	op, ok := loadOp(size)
	if !ok {
		b.fail("load size %d", size)
		return b
	}
	return b.emit(isa.Instruction{Op: op, A: dst, B: base, Disp: disp})
}

// Store emits a store of the given width: mem[base+disp] = src.
func (b *Builder) Store(size int, base isa.Register, disp int32, src isa.Register) *Builder {
	op, ok := storeOp(size)
	if !ok {
		b.fail("store size %d", size)
		return b
	}
	return b.emit(isa.Instruction{Op: op, A: base, B: src, Disp: disp})
}

// Jmp emits an unconditional branch to a label.
func (b *Builder) Jmp(label string) *Builder { return b.branch(isa.OpJmp, label) }

// Jz emits jump-if-zero to a label.
func (b *Builder) Jz(label string) *Builder { return b.branch(isa.OpJz, label) }

// Jnz emits jump-if-not-zero to a label.
func (b *Builder) Jnz(label string) *Builder { return b.branch(isa.OpJnz, label) }

// Jl emits jump-if-signed-less to a label.
func (b *Builder) Jl(label string) *Builder { return b.branch(isa.OpJl, label) }

// Jge emits jump-if-signed-greater-or-equal to a label.
func (b *Builder) Jge(label string) *Builder { return b.branch(isa.OpJge, label) }

// Jle emits jump-if-signed-less-or-equal to a label.
func (b *Builder) Jle(label string) *Builder { return b.branch(isa.OpJle, label) }

// Jg emits jump-if-signed-greater to a label.
func (b *Builder) Jg(label string) *Builder { return b.branch(isa.OpJg, label) }

// Jb emits jump-if-unsigned-below to a label.
func (b *Builder) Jb(label string) *Builder { return b.branch(isa.OpJb, label) }

// Jae emits jump-if-unsigned-above-or-equal to a label.
func (b *Builder) Jae(label string) *Builder { return b.branch(isa.OpJae, label) }

// Call emits a direct call to a label in this image.
func (b *Builder) Call(label string) *Builder { return b.branch(isa.OpCall, label) }

func (b *Builder) branch(op isa.Op, label string) *Builder {
	return b.emitRef(isa.Instruction{Op: op}, refCode, label)
}

// CallR emits an indirect call through a register.
func (b *Builder) CallR(r isa.Register) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpCallR, A: r})
}

// JmpR emits an indirect jump through a register.
func (b *Builder) JmpR(r isa.Register) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpJmpR, A: r})
}

// CallImport emits calli through the import slot for module!symbol (module ""
// means a native system API).
func (b *Builder) CallImport(module, symbol string) *Builder {
	key := bin.Import{Module: module, Symbol: symbol}.String()
	idx, ok := b.importIdx[key]
	if !ok {
		idx = len(b.imports)
		b.imports = append(b.imports, bin.Import{Module: module, Symbol: symbol})
		b.importIdx[key] = idx
	}
	return b.emit(isa.Instruction{Op: isa.OpCallI, Disp: int32(idx)})
}

// Raise emits a software exception with the given code.
func (b *Builder) Raise(code uint32) *Builder {
	return b.emit(isa.Instruction{Op: isa.OpRaise, Disp: isa.CodeToDisp(code)})
}

// LeaCode emits lea dst, <code label> (PC-relative).
func (b *Builder) LeaCode(dst isa.Register, label string) *Builder {
	return b.emitRef(isa.Instruction{Op: isa.OpLea, A: dst}, refCode, label)
}

// LeaData emits lea dst, <data or bss symbol> (PC-relative).
func (b *Builder) LeaData(dst isa.Register, symbol string) *Builder {
	return b.emitRef(isa.Instruction{Op: isa.OpLea, A: dst}, refData, symbol)
}

// --- data section ---

// Data defines an initialized data symbol with the given contents, 8-byte
// aligned.
func (b *Builder) Data(symbol string, contents []byte) *Builder {
	if _, dup := b.dataSyms[symbol]; dup {
		b.fail("duplicate data symbol %q", symbol)
		return b
	}
	for len(b.data)%8 != 0 {
		b.data = append(b.data, 0)
	}
	b.dataSyms[symbol] = uint32(len(b.data))
	b.data = append(b.data, contents...)
	return b
}

// DataU64 defines an 8-byte little-endian data symbol.
func (b *Builder) DataU64(symbol string, v uint64) *Builder {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	return b.Data(symbol, buf[:])
}

// DataPtr defines an 8-byte data symbol holding the absolute address of a
// code label or data symbol, emitted as a load-time relocation.
func (b *Builder) DataPtr(symbol, target string) *Builder {
	b.Data(symbol, make([]byte, 8))
	b.relocs = append(b.relocs, relocRef{dataSym: symbol, target: target})
	return b
}

// BSS reserves size zero-initialized bytes under the given symbol, 8-byte
// aligned.
func (b *Builder) BSS(symbol string, size uint32) *Builder {
	if _, dup := b.bssSyms[symbol]; dup {
		b.fail("duplicate bss symbol %q", symbol)
		return b
	}
	b.bssSize = (b.bssSize + 7) &^ 7
	b.bssSyms[symbol] = b.bssSize
	b.bssSize += size
	return b
}

// Guard records a scope-table entry: while executing [begin, end) inside
// function fn, exceptions are filtered by the filter label (or CatchAll) and
// handled at target.
func (b *Builder) Guard(fn, begin, end, filter, target string) *Builder {
	b.scopes = append(b.scopes, scopeRef{fn: fn, begin: begin, end: end, filter: filter, target: target})
	return b
}

// Build lays out the image, resolves all references and returns the final
// validated CRX image.
func (b *Builder) Build() (*bin.Image, error) {
	if b.err != nil {
		return nil, fmt.Errorf("asm %s: %w", b.name, b.err)
	}

	// Pass 1: assign offsets.
	off := uint32(0)
	for i := range b.entries {
		b.entries[i].off = off
		off += uint32(b.entries[i].ins.Size())
	}
	textLen := off

	img := &bin.Image{Name: b.name, Kind: b.kind}

	codeOff := func(label string) (uint32, error) {
		idx, ok := b.codeSyms[label]
		if !ok {
			return 0, fmt.Errorf("asm %s: undefined label %q", b.name, label)
		}
		if idx == len(b.entries) {
			return textLen, nil
		}
		return b.entries[idx].off, nil
	}

	// Flat offsets for data/bss need the final text length.
	dataStart := uint32(mem.RoundUp(uint64(textLen)))
	bssStart := dataStart + uint32(mem.RoundUp(uint64(len(b.data))))
	flatOff := func(sym string) (uint32, error) {
		if o, ok := b.dataSyms[sym]; ok {
			return dataStart + o, nil
		}
		if o, ok := b.bssSyms[sym]; ok {
			return bssStart + o, nil
		}
		if _, ok := b.codeSyms[sym]; ok {
			return codeOff(sym)
		}
		return 0, fmt.Errorf("asm %s: undefined symbol %q", b.name, sym)
	}

	// Pass 2: patch references and encode.
	for i := range b.entries {
		e := &b.entries[i]
		next := int64(e.off) + int64(e.ins.Size())
		switch e.kind {
		case refCode:
			target, err := codeOff(e.ref)
			if err != nil {
				return nil, err
			}
			e.ins.Disp = int32(int64(target) - next)
		case refData:
			target, err := flatOff(e.ref)
			if err != nil {
				return nil, err
			}
			e.ins.Disp = int32(int64(target) - next)
		}
		var err error
		img.Text, err = isa.Encode(img.Text, e.ins)
		if err != nil {
			return nil, fmt.Errorf("asm %s: %w", b.name, err)
		}
	}

	img.Data = append([]byte(nil), b.data...)
	img.BSSSize = b.bssSize
	img.Imports = append([]bin.Import(nil), b.imports...)

	if b.entry != "" {
		e, err := codeOff(b.entry)
		if err != nil {
			return nil, err
		}
		img.Entry = e
	}

	if len(b.exports) > 0 {
		img.Exports = make(map[string]uint32, len(b.exports))
		for _, name := range b.exportNames {
			o, err := flatOff(b.exports[name])
			if err != nil {
				return nil, err
			}
			img.Exports[name] = o
		}
	}

	for _, f := range b.funcs {
		if f.end < 0 {
			return nil, fmt.Errorf("asm %s: function %q never closed", b.name, f.name)
		}
		start, err := codeOff(f.name)
		if err != nil {
			return nil, err
		}
		end := textLen
		if f.end < len(b.entries) {
			end = b.entries[f.end].off
		}
		img.Symbols = append(img.Symbols, bin.Symbol{Name: f.name, Offset: start, Size: end - start})
	}

	for _, r := range b.relocs {
		at, err := flatOff(r.dataSym)
		if err != nil {
			return nil, err
		}
		target, err := flatOff(r.target)
		if err != nil {
			return nil, err
		}
		img.Relocs = append(img.Relocs, bin.Reloc{Offset: at + r.add, Target: target})
	}

	for _, s := range b.scopes {
		fn, err := codeOff(s.fn)
		if err != nil {
			return nil, err
		}
		begin, err := codeOff(s.begin)
		if err != nil {
			return nil, err
		}
		end, err := codeOff(s.end)
		if err != nil {
			return nil, err
		}
		target, err := codeOff(s.target)
		if err != nil {
			return nil, err
		}
		filter := bin.FilterCatchAll
		if s.filter != CatchAll {
			filter, err = codeOff(s.filter)
			if err != nil {
				return nil, err
			}
		}
		img.Scopes = append(img.Scopes, bin.ScopeEntry{
			Func: fn, Begin: begin, End: end, Filter: filter, Target: target,
		})
	}

	if err := img.Validate(); err != nil {
		return nil, fmt.Errorf("asm %s: %w", b.name, err)
	}
	return img, nil
}

func loadOp(size int) (isa.Op, bool) {
	switch size {
	case 1:
		return isa.OpLoad1, true
	case 2:
		return isa.OpLoad2, true
	case 4:
		return isa.OpLoad4, true
	case 8:
		return isa.OpLoad8, true
	}
	return 0, false
}

func storeOp(size int) (isa.Op, bool) {
	switch size {
	case 1:
		return isa.OpStore1, true
	case 2:
		return isa.OpStore2, true
	case 4:
		return isa.OpStore4, true
	case 8:
		return isa.OpStore8, true
	}
	return 0, false
}
