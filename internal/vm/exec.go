package vm

import (
	"errors"

	"crashresist/internal/bin"
	"crashresist/internal/faultinject"
	"crashresist/internal/isa"
	"crashresist/internal/mem"
)

// step executes one instruction on t, dispatching any exception through the
// platform's exception model. It reports whether the thread yielded the CPU
// (blocked, exited, or executed YIELD).
func (p *Process) step(t *Thread) (yield bool) {
	ins := p.predecoded(t.PC)
	if ins == nil {
		// Magic PCs lie above the arena, outside every table, so only
		// a miss can be one.
		if handled := p.handleMagicPC(t); handled {
			return true
		}
		var (
			buf isa.Instruction
			exc *Exception
		)
		if ins, exc = p.decode(t.PC, &buf); exc != nil {
			p.dispatchException(t, *exc)
			return t.State != ThreadRunnable
		}
	}
	if exc := p.exec(t, ins); exc != nil {
		p.dispatchException(t, *exc)
	}
	return t.State != ThreadRunnable
}

// handleMagicPC consumes magic return addresses; it returns true if the PC
// was magic (thread state may have changed).
func (p *Process) handleMagicPC(t *Thread) bool {
	switch t.PC {
	case threadExitMagic:
		t.State = ThreadDone
		if t.isMain {
			// Main thread return ends the process.
			p.Exit(t.Regs[0])
		}
		return true
	case sigReturnMagic:
		p.sigReturn(t)
		return true
	}
	return false
}

// execOne executes exactly one instruction and returns the exception it
// raised, if any, without dispatching it. The PC is left at the faulting
// instruction on exception, and advanced on success.
func (p *Process) execOne(t *Thread) *Exception {
	ins := p.predecoded(t.PC)
	if ins == nil {
		var (
			buf isa.Instruction
			exc *Exception
		)
		if ins, exc = p.decode(t.PC, &buf); exc != nil {
			return exc
		}
	}
	return p.exec(t, ins)
}

// exec executes ins, the instruction at t's PC, as execOne does. It only
// reads ins, which may be a shared table's.
func (p *Process) exec(t *Thread, ins *isa.Instruction) *Exception {
	if p.Tracer != nil {
		p.Tracer.OnInstruction(t, t.PC, *ins)
	}

	pc := t.PC
	next := pc + uint64(ins.Size())
	flow := p.Flow

	advance := func() {
		t.PC = next
		t.Instructions++
		p.Stats.Instructions++
		p.Clock++
	}

	switch ins.Op {
	case isa.OpNop:
		advance()
	case isa.OpYield:
		advance()
		return nil
	case isa.OpHalt:
		advance()
		p.Exit(t.Regs[0])
	case isa.OpRet:
		retPC, err := p.AS.ReadUint(t.Regs[16], 8)
		if err != nil {
			return p.faultAt(pc, t.Regs[16], mem.AccessRead, err)
		}
		t.Regs[16] += 8
		if len(t.frames) > 1 {
			t.frames = t.frames[:len(t.frames)-1]
		}
		t.PC = retPC
		t.Instructions++
		p.Stats.Instructions++
		p.Clock++
	case isa.OpSyscall:
		advance()
		p.Stats.Syscalls++
		if p.Syscalls == nil {
			return &Exception{Code: ExcIllegalInstruction, PC: pc}
		}
		p.Syscalls.Syscall(p, t)

	case isa.OpPush:
		sp := t.Regs[16] - 8
		if err := p.AS.WriteUint(sp, 8, t.Regs[ins.A]); err != nil {
			return p.faultAt(pc, sp, mem.AccessWrite, err)
		}
		if flow != nil {
			flow.StoreMem(t.ID, ins.A, sp, 8)
		}
		t.Regs[16] = sp
		advance()
	case isa.OpPop:
		sp := t.Regs[16]
		v, err := p.AS.ReadUint(sp, 8)
		if err != nil {
			return p.faultAt(pc, sp, mem.AccessRead, err)
		}
		t.Regs[ins.A] = v
		if flow != nil {
			flow.LoadMem(t.ID, ins.A, sp, 8)
		}
		t.Regs[16] = sp + 8
		advance()
	case isa.OpCallR:
		return p.doCall(t, pc, next, t.Regs[ins.A])
	case isa.OpJmpR:
		t.PC = t.Regs[ins.A]
		t.Instructions++
		p.Stats.Instructions++
		p.Clock++
	case isa.OpNot:
		t.Regs[ins.A] = ^t.Regs[ins.A]
		advance()
	case isa.OpNeg:
		t.Regs[ins.A] = -t.Regs[ins.A]
		advance()

	case isa.OpMovRR:
		t.Regs[ins.A] = t.Regs[ins.B]
		if flow != nil {
			flow.CopyRegReg(t.ID, ins.A, ins.B)
		}
		advance()
	case isa.OpAddRR, isa.OpSubRR, isa.OpAndRR, isa.OpOrRR, isa.OpXorRR,
		isa.OpShlRR, isa.OpShrRR, isa.OpMulRR:
		t.Regs[ins.A] = aluOp(ins.Op, t.Regs[ins.A], t.Regs[ins.B])
		if flow != nil {
			flow.CombineReg(t.ID, ins.A, ins.B)
		}
		advance()
	case isa.OpDivRR:
		if t.Regs[ins.B] == 0 {
			return &Exception{Code: ExcDivideByZero, PC: pc}
		}
		t.Regs[ins.A] /= t.Regs[ins.B]
		if flow != nil {
			flow.CombineReg(t.ID, ins.A, ins.B)
		}
		advance()
	case isa.OpCmpRR:
		setCmpFlags(t, t.Regs[ins.A], t.Regs[ins.B])
		advance()
	case isa.OpTestRR:
		setTestFlags(t, t.Regs[ins.A], t.Regs[ins.B])
		advance()

	case isa.OpMovRI:
		t.Regs[ins.A] = ins.Imm
		if flow != nil {
			flow.SetRegImm(t.ID, ins.A)
		}
		advance()
	case isa.OpAddRI, isa.OpSubRI, isa.OpAndRI, isa.OpOrRI, isa.OpXorRI,
		isa.OpShlRI, isa.OpShrRI, isa.OpMulRI:
		t.Regs[ins.A] = aluOp(riToRR(ins.Op), t.Regs[ins.A], uint64(int64(ins.Disp)))
		advance()
	case isa.OpCmpRI:
		setCmpFlags(t, t.Regs[ins.A], uint64(int64(ins.Disp)))
		advance()
	case isa.OpTestRI:
		setTestFlags(t, t.Regs[ins.A], uint64(int64(ins.Disp)))
		advance()
	case isa.OpLea:
		t.Regs[ins.A] = next + uint64(int64(ins.Disp))
		if flow != nil {
			flow.SetRegImm(t.ID, ins.A)
		}
		advance()

	case isa.OpLoad1, isa.OpLoad2, isa.OpLoad4, isa.OpLoad8:
		sz := ins.LoadSize()
		addr := t.Regs[ins.B] + uint64(int64(ins.Disp))
		if exc := p.injectedMemFault(pc, addr, mem.AccessRead); exc != nil {
			return exc
		}
		v, err := p.AS.ReadUint(addr, sz)
		if err != nil {
			return p.faultAt(pc, addr, mem.AccessRead, err)
		}
		t.Regs[ins.A] = v
		if flow != nil {
			flow.LoadMem(t.ID, ins.A, addr, sz)
		}
		advance()
	case isa.OpStore1, isa.OpStore2, isa.OpStore4, isa.OpStore8:
		sz := ins.StoreSize()
		addr := t.Regs[ins.A] + uint64(int64(ins.Disp))
		if exc := p.injectedMemFault(pc, addr, mem.AccessWrite); exc != nil {
			return exc
		}
		if err := p.AS.WriteUint(addr, sz, t.Regs[ins.B]); err != nil {
			return p.faultAt(pc, addr, mem.AccessWrite, err)
		}
		if flow != nil {
			flow.StoreMem(t.ID, ins.B, addr, sz)
		}
		advance()

	case isa.OpJmp:
		t.PC = next + uint64(int64(ins.Disp))
		t.Instructions++
		p.Stats.Instructions++
		p.Clock++
	case isa.OpJz, isa.OpJnz, isa.OpJl, isa.OpJge, isa.OpJle, isa.OpJg, isa.OpJb, isa.OpJae:
		target := next
		if condTaken(ins.Op, t) {
			target = next + uint64(int64(ins.Disp))
		}
		t.PC = target
		t.Instructions++
		p.Stats.Instructions++
		p.Clock++
	case isa.OpCall:
		return p.doCall(t, pc, next, next+uint64(int64(ins.Disp)))
	case isa.OpCallI:
		return p.doCallImport(t, pc, next, uint32(ins.Disp))
	case isa.OpRaise:
		return &Exception{Code: isa.DispToCode(ins.Disp), PC: pc}

	default:
		return &Exception{Code: ExcIllegalInstruction, PC: pc}
	}
	return nil
}

// predecoded returns the instruction at pc from its page's predecoded
// table, or nil when the table has none there or the process takes the
// reference path. The table misses on pages written since load, on
// instructions that straddle a page or start mid-instruction, and on code
// outside any image.
func (p *Process) predecoded(pc uint64) *isa.Instruction {
	if p.referenceFetch {
		return nil
	}
	return p.AS.Decoded(pc)
}

// decode fetches and decodes the instruction at pc into *buf and returns
// buf: the path for a predecoded miss, the reference path, and the only one
// that faults. The caller's buf stays in its frame.
func (p *Process) decode(pc uint64, buf *isa.Instruction) (*isa.Instruction, *Exception) {
	var code [10]byte
	bytes, err := p.AS.FetchExec(pc, len(code), code[:0])
	if err != nil {
		return nil, p.memFault(pc, err)
	}
	if *buf, _, err = isa.Decode(bytes); err != nil {
		return nil, &Exception{Code: ExcIllegalInstruction, PC: pc}
	}
	return buf, nil
}

// doCall pushes the return address and transfers to target.
func (p *Process) doCall(t *Thread, pc, retPC, target uint64) *Exception {
	sp := t.Regs[16] - 8
	if err := p.AS.WriteUint(sp, 8, retPC); err != nil {
		return p.faultAt(pc, sp, mem.AccessWrite, err)
	}
	if p.Flow != nil {
		p.Flow.ClearMem(sp, 8)
	}
	t.Regs[16] = sp
	t.frames = append(t.frames, Frame{FuncEntry: target, SPAtEntry: sp, RetPC: retPC})
	t.PC = target
	t.Instructions++
	p.Stats.Instructions++
	p.Clock++
	return nil
}

// doCallImport resolves an import slot: native APIs are executed in place;
// code imports behave like a direct call.
func (p *Process) doCallImport(t *Thread, pc, retPC uint64, slot uint32) *Exception {
	mod, ok := p.FindModule(pc)
	if !ok || int(slot) >= len(mod.ImportAddrs) {
		return &Exception{Code: ExcIllegalInstruction, PC: pc}
	}
	target := mod.ImportAddrs[slot]
	if target&bin.NativeImportBit == 0 {
		return p.doCall(t, pc, retPC, target)
	}
	id := uint32(target &^ bin.NativeImportBit)
	if p.API == nil {
		return &Exception{Code: ExcIllegalInstruction, PC: pc}
	}
	t.PC = retPC
	t.Instructions++
	p.Stats.Instructions++
	p.Clock++
	p.Stats.APICalls++
	if p.Tracer != nil {
		p.Tracer.OnAPICall(t, pc, id)
	}
	if p.Flow != nil {
		// The API produces a fresh return value in R0.
		p.Flow.SetRegImm(t.ID, isa.R0)
	}
	if exc := p.API.Call(p, t, id); exc != nil {
		// The API faulted in its user-mode stub; the exception is
		// attributed to the call site, exactly where the frame-based
		// handler search would land after unwinding the stub frame.
		// The exception is the VM's now (APIHandler), so it is
		// changed in place.
		exc.PC = pc
		t.PC = pc // dispatch relative to the call site
		return exc
	}
	return nil
}

// injectedMemFault consults the fault plan at a load/store site, keyed by
// the virtual clock — unique per retired instruction, so decisions are
// identical across schedules and worker counts. An injected fault is an
// unmapped access violation: exactly the class the analyzed handlers and
// the paper's countermeasures care about.
func (p *Process) injectedMemFault(pc, addr uint64, access mem.Access) *Exception {
	fp := p.FaultPlan
	if fp == nil {
		return nil
	}
	site := faultinject.SiteVMLoad
	if access == mem.AccessWrite {
		site = faultinject.SiteVMStore
	}
	if !fp.Should(site, p.Clock) {
		return nil
	}
	p.Stats.FaultsInjected++
	return &Exception{Code: ExcAccessViolation, Addr: addr, PC: pc, Access: access, Unmapped: true}
}

// memFault converts a mem.Fault from instruction fetch into an exception.
func (p *Process) memFault(pc uint64, err error) *Exception {
	var f *mem.Fault
	if errors.As(err, &f) {
		return &Exception{Code: ExcAccessViolation, Addr: f.Addr, PC: pc, Access: f.Access, Unmapped: f.Unmapped}
	}
	return &Exception{Code: ExcAccessViolation, Addr: pc, PC: pc, Access: mem.AccessExec, Unmapped: true}
}

// faultAt converts a data-access error into an access violation exception.
func (p *Process) faultAt(pc, addr uint64, access mem.Access, err error) *Exception {
	var f *mem.Fault
	if errors.As(err, &f) {
		return &Exception{Code: ExcAccessViolation, Addr: f.Addr, PC: pc, Access: f.Access, Unmapped: f.Unmapped}
	}
	return &Exception{Code: ExcAccessViolation, Addr: addr, PC: pc, Access: access, Unmapped: true}
}

func aluOp(op isa.Op, a, b uint64) uint64 {
	switch op {
	case isa.OpAddRR:
		return a + b
	case isa.OpSubRR:
		return a - b
	case isa.OpAndRR:
		return a & b
	case isa.OpOrRR:
		return a | b
	case isa.OpXorRR:
		return a ^ b
	case isa.OpShlRR:
		return a << (b & 63)
	case isa.OpShrRR:
		return a >> (b & 63)
	case isa.OpMulRR:
		return a * b
	default:
		return 0
	}
}

func riToRR(op isa.Op) isa.Op {
	switch op {
	case isa.OpAddRI:
		return isa.OpAddRR
	case isa.OpSubRI:
		return isa.OpSubRR
	case isa.OpAndRI:
		return isa.OpAndRR
	case isa.OpOrRI:
		return isa.OpOrRR
	case isa.OpXorRI:
		return isa.OpXorRR
	case isa.OpShlRI:
		return isa.OpShlRR
	case isa.OpShrRI:
		return isa.OpShrRR
	case isa.OpMulRI:
		return isa.OpMulRR
	default:
		return op
	}
}

func setCmpFlags(t *Thread, a, b uint64) {
	t.flagZ = a == b
	t.flagL = int64(a) < int64(b)
	t.flagB = a < b
}

func setTestFlags(t *Thread, a, b uint64) {
	t.flagZ = a&b == 0
	t.flagL = false
	t.flagB = false
}

func condTaken(op isa.Op, t *Thread) bool {
	switch op {
	case isa.OpJz:
		return t.flagZ
	case isa.OpJnz:
		return !t.flagZ
	case isa.OpJl:
		return t.flagL
	case isa.OpJge:
		return !t.flagL
	case isa.OpJle:
		return t.flagL || t.flagZ
	case isa.OpJg:
		return !t.flagL && !t.flagZ
	case isa.OpJb:
		return t.flagB
	case isa.OpJae:
		return !t.flagB
	default:
		return false
	}
}
