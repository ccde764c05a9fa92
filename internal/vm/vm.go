// Package vm implements the M64 process emulator: a multi-threaded CPU
// interpreter over a paged address space with precise fault semantics, a
// deterministic round-robin scheduler driven by a virtual clock, and the two
// exception models the paper analyzes — frame-based structured exception
// handling (Windows model) and process-wide signal dispatch (Linux model).
//
// The VM is the measurement substrate for every experiment: it reports each
// fault, whether and where it was handled, and drives the pluggable syscall
// (kernel) and API (winapi) layers through narrow interfaces so the taint and
// trace engines can observe every data flow.
package vm

import (
	"fmt"

	"crashresist/internal/isa"
	"crashresist/internal/mem"
)

// Platform selects the exception model of a process.
type Platform uint8

// Platforms.
const (
	// PlatformLinux uses process-wide signal handlers; an unhandled
	// SIGSEGV terminates the process. Programs reach the kernel through
	// the SYSCALL instruction.
	PlatformLinux Platform = iota + 1
	// PlatformWindows uses frame-based SEH driven by scope tables; an
	// unhandled exception terminates the process. Programs reach the
	// platform through imported API functions (CALLI).
	PlatformWindows
)

// String returns "linux" or "windows".
func (p Platform) String() string {
	switch p {
	case PlatformLinux:
		return "linux"
	case PlatformWindows:
		return "windows"
	default:
		return "platform?"
	}
}

// Exception codes (Windows-model numeric space, also used as the internal
// representation on the Linux model before signal translation).
const (
	ExcAccessViolation    uint32 = 0xC0000005
	ExcIllegalInstruction uint32 = 0xC000001D
	ExcDivideByZero       uint32 = 0xC0000094
	ExcStackOverflow      uint32 = 0xC00000FD
	ExcGuardPage          uint32 = 0x80000001
)

// SEH filter dispositions, as returned in R0 by filter functions.
const (
	DispositionContinueExecution = ^uint64(0) // -1: resume after faulting instruction
	DispositionContinueSearch    = 0          // keep looking for a handler
	DispositionExecuteHandler    = 1          // unwind to the handler target
)

// Signal numbers for the Linux model.
const (
	SigIll  = 4
	SigFpe  = 8
	SigSegv = 11
)

// Exception describes a fault or software exception.
type Exception struct {
	Code     uint32
	Addr     uint64 // faulting data address (memory faults)
	PC       uint64 // address of the faulting instruction
	Access   mem.Access
	Unmapped bool // memory fault hit unmapped (vs mapped-but-protected) memory
}

// String renders the exception for diagnostics.
func (e Exception) String() string {
	if e.Code == ExcAccessViolation {
		kind := "protected"
		if e.Unmapped {
			kind = "unmapped"
		}
		return fmt.Sprintf("access violation (%s %s %#x) at pc %#x", kind, e.Access, e.Addr, e.PC)
	}
	return fmt.Sprintf("exception %#x at pc %#x", e.Code, e.PC)
}

// Signal returns the Linux-model signal number for the exception code.
func (e Exception) Signal() int {
	switch e.Code {
	case ExcAccessViolation, ExcStackOverflow, ExcGuardPage:
		return SigSegv
	case ExcDivideByZero:
		return SigFpe
	default:
		return SigIll
	}
}

// SyscallHandler is the kernel-side implementation of the SYSCALL
// instruction. The handler reads the syscall number from R0 and arguments
// from R1..R5, and either completes the call (setting R0) or blocks the
// thread via Thread.Block.
type SyscallHandler interface {
	Syscall(p *Process, t *Thread)
}

// APIHandler is the platform-API side of native CALLI imports.
type APIHandler interface {
	// Resolve maps an imported API symbol name to an API identifier.
	Resolve(symbol string) (uint32, error)
	// Call executes API id for the thread; arguments are in R1..R5 and
	// the result goes to R0. A non-nil Exception means the API faulted in
	// user mode (e.g. dereferenced a bad pointer in its user-space stub)
	// and the exception must be dispatched at the call site. A returned
	// Exception belongs to the VM, which changes it, so Call returns a
	// new one each time.
	Call(p *Process, t *Thread, id uint32) *Exception
}

// Tracer observes execution. Any method may be a no-op; the VM only invokes
// a non-nil tracer. Tracers must not mutate the process.
type Tracer interface {
	OnInstruction(t *Thread, pc uint64, ins isa.Instruction)
	OnAPICall(t *Thread, callPC uint64, id uint32)
	OnException(t *Thread, exc Exception)
	OnExceptionHandled(t *Thread, exc Exception, handlerPC uint64)
}

// DataFlow receives register/memory transfer events for taint tracking.
// Implementations must be cheap; they run inline on every instruction.
type DataFlow interface {
	// CopyRegReg propagates dst = src.
	CopyRegReg(tid int, dst, src isa.Register)
	// SetRegImm clears dst (constant assignment).
	SetRegImm(tid int, dst isa.Register)
	// CombineReg merges src into dst (binary ALU op).
	CombineReg(tid int, dst, src isa.Register)
	// LoadMem propagates memory bytes [addr, addr+size) into dst.
	LoadMem(tid int, dst isa.Register, addr uint64, size int)
	// StoreMem propagates dst register bytes into [addr, addr+size).
	StoreMem(tid int, src isa.Register, addr uint64, size int)
	// ClearMem clears taint on [addr, addr+size) (constant stores).
	ClearMem(addr uint64, size int)
	// MarkMem sets a taint label on [addr, addr+size) (input sources).
	MarkMem(label uint8, addr uint64, size int)
}

// Policy holds exception-dispatch countermeasures from the paper's §VII-C.
type Policy struct {
	// MappedOnlyAV makes access violations on *unmapped* memory
	// uncatchable: the process terminates without consulting any handler.
	// Violations on mapped-but-protected pages (e.g. guard-page
	// optimizations) remain handleable.
	MappedOnlyAV bool
}

// Stats aggregates process-level counters.
type Stats struct {
	Instructions   uint64
	Faults         uint64 // exceptions raised
	FaultsUnmapped uint64 // access violations on unmapped addresses
	FaultsHandled  uint64 // exceptions resolved by a handler
	FaultsInjected uint64 // faults fired by an attached fault plan
	Syscalls       uint64
	APICalls       uint64
}

// Add accumulates another process's counters, e.g. when a pipeline sums
// stats over many short-lived harness processes.
func (s *Stats) Add(o Stats) {
	s.Instructions += o.Instructions
	s.Faults += o.Faults
	s.FaultsUnmapped += o.FaultsUnmapped
	s.FaultsHandled += o.FaultsHandled
	s.FaultsInjected += o.FaultsInjected
	s.Syscalls += o.Syscalls
	s.APICalls += o.APICalls
}

// Minus returns the per-counter deltas since a prior snapshot of the same
// process, so callers can attribute cost to one phase of a long-lived
// process's life (the cost profiler charges a target's boot and scan
// phases separately). Counters are monotonic, so fields subtract directly;
// prev must be an earlier snapshot of the same Stats.
func (s Stats) Minus(prev Stats) Stats {
	return Stats{
		Instructions:   s.Instructions - prev.Instructions,
		Faults:         s.Faults - prev.Faults,
		FaultsUnmapped: s.FaultsUnmapped - prev.FaultsUnmapped,
		FaultsHandled:  s.FaultsHandled - prev.FaultsHandled,
		FaultsInjected: s.FaultsInjected - prev.FaultsInjected,
		Syscalls:       s.Syscalls - prev.Syscalls,
		APICalls:       s.APICalls - prev.APICalls,
	}
}

// CrashInfo records why a process died.
type CrashInfo struct {
	TID   int
	Exc   Exception
	Clock uint64
}

// String renders the crash record.
func (c *CrashInfo) String() string {
	return fmt.Sprintf("thread %d crashed at clock %d: %s", c.TID, c.Clock, c.Exc)
}

// ProcState is the lifecycle state of a process.
type ProcState uint8

// Process states.
const (
	ProcRunning ProcState = iota + 1
	ProcIdle              // all threads blocked with no pending timer
	ProcExited
	ProcCrashed
)

// String renders the process state.
func (s ProcState) String() string {
	switch s {
	case ProcRunning:
		return "running"
	case ProcIdle:
		return "idle"
	case ProcExited:
		return "exited"
	case ProcCrashed:
		return "crashed"
	default:
		return "state?"
	}
}

// Magic return addresses recognized by the interpreter.
const (
	// threadExitMagic terminates the thread when returned to.
	threadExitMagic = 0xFFFFFFFFFFFF0F00
	// filterDoneMagic ends a filter-function sub-execution.
	filterDoneMagic = 0xFFFFFFFFFFFF0E00
	// sigReturnMagic ends a Linux-model signal handler.
	sigReturnMagic = 0xFFFFFFFFFFFF0D00
)

// ThreadState is the scheduler state of a thread.
type ThreadState uint8

// Thread states.
const (
	ThreadRunnable ThreadState = iota + 1
	ThreadBlocked
	ThreadDone
)

// Frame is one entry of the shadow call stack used for SEH frame walking.
type Frame struct {
	FuncEntry uint64 // callee entry address
	SPAtEntry uint64 // SP immediately after the call pushed the return address
	RetPC     uint64 // return address in the caller
}

// Thread is one thread of execution.
type Thread struct {
	ID   int
	Name string

	Regs  [isa.NumRegisters]uint64
	PC    uint64
	flagZ bool
	flagL bool // signed less-than from last compare
	flagB bool // unsigned below from last compare

	State  ThreadState
	WakeAt uint64 // virtual deadline when blocked with timeout (0 = none)
	resume func(timedOut bool)

	// StackBase and StackSize describe the thread's mapped stack region.
	StackBase uint64
	StackSize uint64

	frames      []Frame
	sigDepth    int
	savedSigCtx []sigCtx

	filterDepth int
	isMain      bool

	proc *Process

	// Instructions counts instructions retired by this thread.
	Instructions uint64
}

type sigCtx struct {
	regs   [isa.NumRegisters]uint64
	pc     uint64
	resume uint64 // where sigreturn continues
	frames int    // frame depth to restore
}

// Reg returns a register value.
func (t *Thread) Reg(r isa.Register) uint64 { return t.Regs[r] }

// SetReg sets a register value.
func (t *Thread) SetReg(r isa.Register, v uint64) { t.Regs[r] = v }

// Proc returns the owning process.
func (t *Thread) Proc() *Process { return t.proc }

// Block parks the thread until Wake is called or, if wakeAt is non-zero, the
// virtual clock reaches wakeAt. The resume continuation runs exactly once
// with timedOut reporting which of the two happened.
func (t *Thread) Block(wakeAt uint64, resume func(timedOut bool)) {
	t.State = ThreadBlocked
	t.WakeAt = wakeAt
	t.resume = resume
}

// Wake unparks a blocked thread. It is a no-op for non-blocked threads.
func (t *Thread) Wake(timedOut bool) {
	if t.State != ThreadBlocked {
		return
	}
	t.State = ThreadRunnable
	t.WakeAt = 0
	r := t.resume
	t.resume = nil
	if r != nil {
		r(timedOut)
	}
}

// InFilter reports whether the thread is currently evaluating an exception
// filter; kernels refuse to block in that context.
func (t *Thread) InFilter() bool { return t.filterDepth > 0 }

// OnStack reports whether addr lies within this thread's stack region.
func (t *Thread) OnStack(addr uint64) bool {
	return addr >= t.StackBase && addr < t.StackBase+t.StackSize
}

// Frames returns a copy of the shadow call stack, oldest first.
func (t *Thread) Frames() []Frame {
	out := make([]Frame, len(t.frames))
	copy(out, t.frames)
	return out
}
