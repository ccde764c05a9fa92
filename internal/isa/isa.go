// Package isa defines M64, the synthetic 64-bit instruction set used by every
// binary artifact in this repository.
//
// M64 is a compact register machine standing in for x86-64 in the paper's
// pipeline: it has byte/word/dword/qword loads and stores (so taint tracking
// can be byte granular), PC-relative addressing (so images are position
// independent under ASLR), calls through an import table (so the Windows-API
// pipeline can observe API call sites), a SYSCALL instruction (for the Linux
// pipeline), and an explicit RAISE instruction for software exceptions.
//
// Every instruction has a fixed layout determined by its opcode, which keeps
// the encoder, decoder, disassembler, concrete emulator, taint propagation
// and symbolic executor in exact agreement about operand semantics.
package isa

import (
	"fmt"
	"strconv"
)

// Register identifies one of the machine registers. R0..R15 are general
// purpose; SP is the stack pointer. By convention R0 carries return values
// and the syscall number, and R1..R5 carry call/syscall arguments.
type Register uint8

// Machine registers.
const (
	R0 Register = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	SP

	// NumRegisters is the size of a register file array.
	NumRegisters = 17
)

// String returns the assembler name of the register.
func (r Register) String() string {
	if r == SP {
		return "sp"
	}
	if r < SP {
		return "r" + strconv.Itoa(int(r))
	}
	return "reg?" + strconv.Itoa(int(r))
}

// Valid reports whether r names an actual machine register.
func (r Register) Valid() bool { return r < NumRegisters }

// Op is an M64 opcode.
type Op uint8

// Opcodes. The numeric values are part of the CRX image format and must not
// be reordered.
const (
	// No operands.
	OpNop Op = iota + 1
	OpHalt
	OpRet
	OpSyscall
	OpYield

	// One register operand (A).
	OpPush
	OpPop
	OpCallR
	OpJmpR
	OpNot
	OpNeg

	// Two register operands (A, B).
	OpMovRR
	OpAddRR
	OpSubRR
	OpAndRR
	OpOrRR
	OpXorRR
	OpShlRR
	OpShrRR
	OpMulRR
	OpDivRR
	OpCmpRR
	OpTestRR

	// Register + 64-bit immediate (A, Imm).
	OpMovRI

	// Register + 32-bit signed immediate (A, Disp).
	OpAddRI
	OpSubRI
	OpAndRI
	OpOrRI
	OpXorRI
	OpShlRI
	OpShrRI
	OpMulRI
	OpCmpRI
	OpTestRI

	// Register + PC-relative 32-bit displacement (A, Disp): A = next_pc + Disp.
	OpLea

	// Memory: two registers + displacement (A, B, Disp).
	// Loads: A = mem[B + Disp]; stores: mem[A + Disp] = B.
	OpLoad1
	OpLoad2
	OpLoad4
	OpLoad8
	OpStore1
	OpStore2
	OpStore4
	OpStore8

	// PC-relative 32-bit displacement only (Disp).
	OpJmp
	OpJz
	OpJnz
	OpJl
	OpJge
	OpJle
	OpJg
	OpJb
	OpJae
	OpCall

	// 32-bit immediate only (Disp reused as payload).
	OpCallI // call through import slot Disp
	OpRaise // raise software exception with code uint32(Disp)

	opMax // sentinel; keep last
)

var opNames = map[Op]string{
	OpNop: "nop", OpHalt: "halt", OpRet: "ret", OpSyscall: "syscall", OpYield: "yield",
	OpPush: "push", OpPop: "pop", OpCallR: "callr", OpJmpR: "jmpr", OpNot: "not", OpNeg: "neg",
	OpMovRR: "mov", OpAddRR: "add", OpSubRR: "sub", OpAndRR: "and", OpOrRR: "or",
	OpXorRR: "xor", OpShlRR: "shl", OpShrRR: "shr", OpMulRR: "mul", OpDivRR: "div",
	OpCmpRR: "cmp", OpTestRR: "test",
	OpMovRI: "mov",
	OpAddRI: "add", OpSubRI: "sub", OpAndRI: "and", OpOrRI: "or", OpXorRI: "xor",
	OpShlRI: "shl", OpShrRI: "shr", OpMulRI: "mul", OpCmpRI: "cmp", OpTestRI: "test",
	OpLea:   "lea",
	OpLoad1: "load1", OpLoad2: "load2", OpLoad4: "load4", OpLoad8: "load8",
	OpStore1: "store1", OpStore2: "store2", OpStore4: "store4", OpStore8: "store8",
	OpJmp: "jmp", OpJz: "jz", OpJnz: "jnz", OpJl: "jl", OpJge: "jge",
	OpJle: "jle", OpJg: "jg", OpJb: "jb", OpJae: "jae", OpCall: "call",
	OpCallI: "calli", OpRaise: "raise",
}

// String returns the assembler mnemonic of the opcode.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return "op?" + strconv.Itoa(int(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o >= OpNop && o < opMax }

// Layout describes the operand encoding class of an opcode.
type Layout uint8

// Operand layouts.
const (
	LayoutNone Layout = iota + 1 // 1 byte: op
	LayoutR                      // 2 bytes: op A
	LayoutRR                     // 3 bytes: op A B
	LayoutRI64                   // 10 bytes: op A imm64
	LayoutRI32                   // 6 bytes: op A disp32
	LayoutRRD                    // 7 bytes: op A B disp32
	LayoutD32                    // 5 bytes: op disp32
)

// Size returns the encoded size in bytes of an instruction with this layout.
func (l Layout) Size() int {
	switch l {
	case LayoutNone:
		return 1
	case LayoutR:
		return 2
	case LayoutRR:
		return 3
	case LayoutRI64:
		return 10
	case LayoutRI32, LayoutRRD:
		if l == LayoutRRD {
			return 7
		}
		return 6
	case LayoutD32:
		return 5
	default:
		return 0
	}
}

// LayoutOf returns the operand layout for an opcode.
func LayoutOf(op Op) Layout { return layoutOf[op] }

// layoutOf and sizeOf hold every byte's LayoutOf and encoded size, so
// decoding and the interpreter read a table instead of a switch chain.
var layoutOf, sizeOf = opTables()

func opTables() (layout [256]Layout, size [256]uint8) {
	for op := range layout {
		layout[op] = layoutFor(Op(op))
		size[op] = uint8(layout[op].Size())
	}
	return layout, size
}

// layoutFor defines LayoutOf.
func layoutFor(op Op) Layout {
	switch {
	case op >= OpNop && op <= OpYield:
		return LayoutNone
	case op >= OpPush && op <= OpNeg:
		return LayoutR
	case op >= OpMovRR && op <= OpTestRR:
		return LayoutRR
	case op == OpMovRI:
		return LayoutRI64
	case op >= OpAddRI && op <= OpTestRI, op == OpLea:
		return LayoutRI32
	case op >= OpLoad1 && op <= OpStore8:
		return LayoutRRD
	case op >= OpJmp && op <= OpRaise:
		return LayoutD32
	default:
		return 0
	}
}

// CodeToDisp reinterprets a 32-bit exception code (e.g. 0xC0000005) as the
// signed Disp operand field carried by OpRaise.
func CodeToDisp(code uint32) int32 { return int32(code) }

// DispToCode is the inverse of CodeToDisp.
func DispToCode(disp int32) uint32 { return uint32(disp) }

// Instruction is a decoded M64 instruction. Its fields are ordered so it
// packs into 16 bytes.
type Instruction struct {
	Op   Op
	A    Register // first register operand
	B    Register // second register operand
	Disp int32    // 32-bit displacement / immediate / import slot / code
	Imm  uint64   // 64-bit immediate (OpMovRI)
}

// Size returns the encoded size of the instruction in bytes.
func (i Instruction) Size() int { return int(sizeOf[i.Op]) }

// IsBranch reports whether the instruction may transfer control somewhere
// other than the next instruction.
func (i Instruction) IsBranch() bool {
	switch i.Op {
	case OpJmp, OpJz, OpJnz, OpJl, OpJge, OpJle, OpJg, OpJb, OpJae,
		OpCall, OpCallR, OpCallI, OpJmpR, OpRet, OpHalt, OpRaise:
		return true
	}
	return false
}

// IsCond reports whether the instruction is a conditional branch.
func (i Instruction) IsCond() bool {
	switch i.Op {
	case OpJz, OpJnz, OpJl, OpJge, OpJle, OpJg, OpJb, OpJae:
		return true
	}
	return false
}

// LoadSize returns the access width in bytes of a load opcode, or 0.
func (i Instruction) LoadSize() int {
	switch i.Op {
	case OpLoad1:
		return 1
	case OpLoad2:
		return 2
	case OpLoad4:
		return 4
	case OpLoad8:
		return 8
	}
	return 0
}

// StoreSize returns the access width in bytes of a store opcode, or 0.
func (i Instruction) StoreSize() int {
	switch i.Op {
	case OpStore1:
		return 1
	case OpStore2:
		return 2
	case OpStore4:
		return 4
	case OpStore8:
		return 8
	}
	return 0
}

// String renders the instruction in assembler syntax.
func (i Instruction) String() string {
	switch LayoutOf(i.Op) {
	case LayoutNone:
		return i.Op.String()
	case LayoutR:
		return fmt.Sprintf("%s %s", i.Op, i.A)
	case LayoutRR:
		return fmt.Sprintf("%s %s, %s", i.Op, i.A, i.B)
	case LayoutRI64:
		return fmt.Sprintf("%s %s, %#x", i.Op, i.A, i.Imm)
	case LayoutRI32:
		if i.Op == OpLea {
			return fmt.Sprintf("lea %s, [pc%+d]", i.A, i.Disp)
		}
		return fmt.Sprintf("%s %s, %d", i.Op, i.A, i.Disp)
	case LayoutRRD:
		if i.LoadSize() != 0 {
			return fmt.Sprintf("%s %s, [%s%+d]", i.Op, i.A, i.B, i.Disp)
		}
		return fmt.Sprintf("%s [%s%+d], %s", i.Op, i.A, i.Disp, i.B)
	case LayoutD32:
		switch i.Op {
		case OpCallI:
			return fmt.Sprintf("calli #%d", i.Disp)
		case OpRaise:
			return fmt.Sprintf("raise %#x", uint32(i.Disp))
		default:
			return fmt.Sprintf("%s %+d", i.Op, i.Disp)
		}
	default:
		return fmt.Sprintf("invalid(%d)", i.Op)
	}
}
