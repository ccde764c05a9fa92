package isa

import (
	"encoding/binary"
	"fmt"
)

// Encoding errors.
type (
	// InvalidOpError reports an undefined opcode byte.
	InvalidOpError struct{ Op Op }
	// TruncatedError reports a byte stream too short for the opcode's layout.
	TruncatedError struct {
		Op   Op
		Need int
		Have int
	}
	// BadRegisterError reports a register operand out of range.
	BadRegisterError struct {
		Op  Op
		Reg Register
	}
)

func (e *InvalidOpError) Error() string { return fmt.Sprintf("invalid opcode %#x", uint8(e.Op)) }

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("truncated %s: need %d bytes, have %d", e.Op, e.Need, e.Have)
}

func (e *BadRegisterError) Error() string {
	return fmt.Sprintf("%s: bad register operand %d", e.Op, e.Reg)
}

// Encode appends the binary encoding of ins to dst and returns the extended
// slice. It returns an error if the instruction is malformed.
func Encode(dst []byte, ins Instruction) ([]byte, error) {
	layout := LayoutOf(ins.Op)
	if layout == 0 {
		return dst, &InvalidOpError{Op: ins.Op}
	}
	if needsA(layout) && !ins.A.Valid() {
		return dst, &BadRegisterError{Op: ins.Op, Reg: ins.A}
	}
	if needsB(layout) && !ins.B.Valid() {
		return dst, &BadRegisterError{Op: ins.Op, Reg: ins.B}
	}

	dst = append(dst, byte(ins.Op))
	switch layout {
	case LayoutNone:
	case LayoutR:
		dst = append(dst, byte(ins.A))
	case LayoutRR:
		dst = append(dst, byte(ins.A), byte(ins.B))
	case LayoutRI64:
		dst = append(dst, byte(ins.A))
		dst = binary.LittleEndian.AppendUint64(dst, ins.Imm)
	case LayoutRI32:
		dst = append(dst, byte(ins.A))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(ins.Disp))
	case LayoutRRD:
		dst = append(dst, byte(ins.A), byte(ins.B))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(ins.Disp))
	case LayoutD32:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(ins.Disp))
	}
	return dst, nil
}

// Decode decodes one instruction from the front of buf. It returns the
// instruction and its encoded size.
func Decode(buf []byte) (Instruction, int, error) {
	if len(buf) == 0 {
		return Instruction{}, 0, &TruncatedError{Need: 1}
	}
	op := Op(buf[0])
	layout := LayoutOf(op)
	if layout == 0 {
		return Instruction{}, 0, &InvalidOpError{Op: op}
	}
	size := int(sizeOf[op])
	if len(buf) < size {
		return Instruction{}, 0, &TruncatedError{Op: op, Need: size, Have: len(buf)}
	}

	ins := Instruction{Op: op}
	switch layout {
	case LayoutNone:
	case LayoutR:
		ins.A = Register(buf[1])
	case LayoutRR:
		ins.A = Register(buf[1])
		ins.B = Register(buf[2])
	case LayoutRI64:
		ins.A = Register(buf[1])
		ins.Imm = binary.LittleEndian.Uint64(buf[2:])
	case LayoutRI32:
		ins.A = Register(buf[1])
		ins.Disp = int32(binary.LittleEndian.Uint32(buf[2:]))
	case LayoutRRD:
		ins.A = Register(buf[1])
		ins.B = Register(buf[2])
		ins.Disp = int32(binary.LittleEndian.Uint32(buf[3:]))
	case LayoutD32:
		ins.Disp = int32(binary.LittleEndian.Uint32(buf[1:]))
	}
	if needsA(layout) && !ins.A.Valid() {
		return Instruction{}, 0, &BadRegisterError{Op: op, Reg: ins.A}
	}
	if needsB(layout) && !ins.B.Valid() {
		return Instruction{}, 0, &BadRegisterError{Op: op, Reg: ins.B}
	}
	return ins, size, nil
}

// EncodeAll encodes a sequence of instructions into a fresh byte slice.
func EncodeAll(prog []Instruction) ([]byte, error) {
	var (
		out []byte
		err error
	)
	for i, ins := range prog {
		out, err = Encode(out, ins)
		if err != nil {
			return nil, fmt.Errorf("instruction %d: %w", i, err)
		}
	}
	return out, nil
}

// DecodeAll decodes instructions until buf is exhausted.
func DecodeAll(buf []byte) ([]Instruction, error) {
	var out []Instruction
	for off := 0; off < len(buf); {
		ins, n, err := Decode(buf[off:])
		if err != nil {
			return nil, fmt.Errorf("offset %d: %w", off, err)
		}
		out = append(out, ins)
		off += n
	}
	return out, nil
}

func needsA(l Layout) bool { return l != LayoutNone && l != LayoutD32 }
func needsB(l Layout) bool { return l == LayoutRR || l == LayoutRRD }
