package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"

	"crashresist/internal/bin"
	"crashresist/internal/faultinject"
	"crashresist/internal/mem"
)

// Default process parameters.
const (
	// DefaultQuantum is how many instructions a thread runs before the
	// scheduler rotates to the next runnable thread.
	DefaultQuantum = 64
	// DefaultStackSize is the stack allocated for new threads.
	DefaultStackSize = 64 * 1024
	// arenaLow and arenaHigh bound the user address arena the ASLR
	// allocator places mappings in.
	arenaLow  = 0x0000000100000000
	arenaHigh = 0x0000080000000000
)

// Config parameterizes process creation.
type Config struct {
	Platform Platform
	// Seed drives the ASLR allocator; identical seeds give identical
	// layouts.
	Seed int64
	// Quantum overrides DefaultQuantum when non-zero.
	Quantum int
	// StackSize overrides DefaultStackSize when non-zero.
	StackSize uint64
	Policy    Policy
	// FaultPlan, when non-nil, injects deterministic faults at the
	// emulator's memory-access and exception-dispatch sites.
	FaultPlan *faultinject.Plan
}

// Process is a simulated user-space process.
type Process struct {
	AS    *mem.AddressSpace
	Alloc *mem.Allocator

	Platform Platform
	Policy   Policy

	// Clock is the virtual time in ticks; one instruction = one tick.
	Clock uint64

	// Syscalls handles the SYSCALL instruction (Linux model).
	Syscalls SyscallHandler
	// API handles native imports (Windows model).
	API APIHandler
	// Tracer, if non-nil, observes execution.
	Tracer Tracer
	// Flow, if non-nil, receives data-flow events for taint tracking.
	Flow DataFlow
	// FaultPlan, if non-nil, injects deterministic faults keyed by the
	// virtual clock (see internal/faultinject).
	FaultPlan *faultinject.Plan

	// SignalHandlers maps Linux-model signal numbers to handler
	// addresses, registered via the kernel's sigaction. A fork shares
	// the map with its source, so write it only through
	// SetSignalHandler.
	SignalHandlers map[int]uint64

	Stats Stats

	State    ProcState
	ExitCode uint64
	Crash    *CrashInfo

	// referenceFetch makes every instruction take the fetch-and-decode
	// path, ignoring predecoded tables; the differential tests set it.
	referenceFetch bool
	// sharedMaps reports that SignalHandlers and modsByName may be
	// shared with a fork or the process this one forked from, so a write
	// to either first copies it.
	sharedMaps bool

	modules    []*bin.Module
	modsByName map[string]*bin.Module
	threads    []*Thread
	nextTID    int
	quantum    int
	stackSize  uint64
	rrIndex    int
	veh        []uint64
}

// AddVEHandler registers a vectored exception handler (Windows model): the
// function at va is consulted before any frame-based scope search. Vectored
// handlers are registered at run time and leave no static scope-table trace
// — which is why the paper's static pipeline misses primitives built on
// them (§VII-A).
func (p *Process) AddVEHandler(va uint64) { p.veh = append(p.veh, va) }

// VEHandlers returns the registered vectored handlers in registration order.
func (p *Process) VEHandlers() []uint64 {
	out := make([]uint64, len(p.veh))
	copy(out, p.veh)
	return out
}

// NewProcess creates an empty process with a fresh address space.
func NewProcess(cfg Config) *Process {
	quantum := cfg.Quantum
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	stack := cfg.StackSize
	if stack == 0 {
		stack = DefaultStackSize
	}
	as := mem.NewAddressSpace()
	return &Process{
		AS:             as,
		Alloc:          mem.NewAllocator(as, arenaLow, arenaHigh, cfg.Seed),
		Platform:       cfg.Platform,
		Policy:         cfg.Policy,
		FaultPlan:      cfg.FaultPlan,
		SignalHandlers: make(map[int]uint64),
		modsByName:     make(map[string]*bin.Module),
		State:          ProcRunning,
		quantum:        quantum,
		stackSize:      stack,
	}
}

// Fork returns a copy of p that continues exactly as p would: its memory
// (shared copy-on-write, see mem.AddressSpace.Fork), threads, frames and
// scheduler position, clock and Stats, modules, vectored and signal
// handlers, and an allocator that continues p's draws. The copy shares p's
// API handler and fault plan and has no tracer and no data flow; callers
// attach their own. The two share the signal-handler and module-name maps
// until either writes one (SetSignalHandler, LoadImage), which copies it.
//
// Fork refuses a process with a syscall handler, whose kernel state it
// cannot copy, and one with a thread blocked on a continuation, a closure
// it cannot copy. Fork writes to p only to stop p writing its own pages and
// maps in place, which a process forked from and never run since does not
// need.
func (p *Process) Fork() (*Process, error) {
	if p.Syscalls != nil {
		return nil, errors.New("fork: the process has a syscall handler")
	}
	for _, t := range p.threads {
		if t.resume != nil {
			return nil, fmt.Errorf("fork: thread %d is blocked on a continuation", t.ID)
		}
	}
	as := p.AS.Fork()
	if !p.sharedMaps {
		p.sharedMaps = true
	}
	c := &Process{
		AS:             as,
		Alloc:          p.Alloc.Fork(as),
		Platform:       p.Platform,
		Policy:         p.Policy,
		Clock:          p.Clock,
		API:            p.API,
		FaultPlan:      p.FaultPlan,
		SignalHandlers: p.SignalHandlers,
		Stats:          p.Stats,
		State:          p.State,
		ExitCode:       p.ExitCode,
		referenceFetch: p.referenceFetch,
		sharedMaps:     true,
		modules:        slices.Clone(p.modules),
		modsByName:     p.modsByName,
		threads:        make([]*Thread, len(p.threads)),
		nextTID:        p.nextTID,
		quantum:        p.quantum,
		stackSize:      p.stackSize,
		rrIndex:        p.rrIndex,
		veh:            slices.Clone(p.veh),
	}
	if p.Crash != nil {
		crash := *p.Crash
		c.Crash = &crash
	}
	threads := make([]Thread, len(p.threads))
	for i, t := range p.threads {
		threads[i] = *t
		threads[i].proc = c
		threads[i].frames = slices.Clone(t.frames)
		threads[i].savedSigCtx = slices.Clone(t.savedSigCtx)
		c.threads[i] = &threads[i]
	}
	return c, nil
}

// LoadImage maps an image into the process, resolving module imports against
// already-loaded modules and native imports against the API handler.
func (p *Process) LoadImage(img *bin.Image) (*bin.Module, error) {
	resolver := func(imp bin.Import) (uint64, error) {
		if imp.Module == "" {
			if p.API == nil {
				return 0, fmt.Errorf("no API handler for %s", imp)
			}
			id, err := p.API.Resolve(imp.Symbol)
			if err != nil {
				return 0, err
			}
			return bin.NativeImportBit | uint64(id), nil
		}
		dep, ok := p.modsByName[imp.Module]
		if !ok {
			return 0, fmt.Errorf("module %q not loaded", imp.Module)
		}
		off, ok := dep.Image.Export(imp.Symbol)
		if !ok {
			return 0, fmt.Errorf("module %q does not export %q", imp.Module, imp.Symbol)
		}
		return dep.VA(off), nil
	}
	mod, err := bin.Load(p.AS, p.Alloc, img, resolver)
	if err != nil {
		return nil, err
	}
	p.ownMaps()
	p.modules = append(p.modules, mod)
	p.modsByName[img.Name] = mod
	return mod, nil
}

// SetSignalHandler registers handler for a Linux-model signal, as the
// kernel's sigaction does.
func (p *Process) SetSignalHandler(sig int, handler uint64) {
	p.ownMaps()
	p.SignalHandlers[sig] = handler
}

// ownMaps copies SignalHandlers and modsByName if a fork may share them, so
// a write to either shows in this process alone.
func (p *Process) ownMaps() {
	if p.sharedMaps {
		p.SignalHandlers = maps.Clone(p.SignalHandlers)
		p.modsByName = maps.Clone(p.modsByName)
		p.sharedMaps = false
	}
}

// Modules returns the loaded modules in load order.
func (p *Process) Modules() []*bin.Module {
	out := make([]*bin.Module, len(p.modules))
	copy(out, p.modules)
	return out
}

// Module returns a loaded module by image name.
func (p *Process) Module(name string) (*bin.Module, bool) {
	m, ok := p.modsByName[name]
	return m, ok
}

// FindModule returns the module containing the virtual address.
func (p *Process) FindModule(addr uint64) (*bin.Module, bool) {
	for _, m := range p.modules {
		if m.Contains(addr) {
			return m, true
		}
	}
	return nil, false
}

// SymbolAt resolves an address to "module!symbol+off" for diagnostics.
func (p *Process) SymbolAt(addr uint64) string {
	m, ok := p.FindModule(addr)
	if !ok {
		return fmt.Sprintf("%#x", addr)
	}
	off := m.OffsetOf(addr)
	if sym, ok := m.Image.SymbolAt(off); ok {
		return fmt.Sprintf("%s!%s+%#x", m.Image.Name, sym.Name, off-sym.Offset)
	}
	return fmt.Sprintf("%s+%#x", m.Image.Name, off)
}

// StartThread creates a runnable thread entering at entry with up to five
// arguments in R1..R5 and a freshly mapped stack.
func (p *Process) StartThread(name string, entry uint64, args ...uint64) (*Thread, error) {
	if len(args) > 5 {
		return nil, fmt.Errorf("start thread: too many args (%d)", len(args))
	}
	stackBase, err := p.Alloc.Alloc(p.stackSize, mem.PermRW)
	if err != nil {
		return nil, fmt.Errorf("start thread: stack: %w", err)
	}
	sp := stackBase + p.stackSize - 64
	// Seed the return address so a RET from the entry function exits the
	// thread. A stack of whole pages has sp on its top page at
	// PageSize-64, where exitPage holds the address, so the page becomes a
	// view of exitPage and costs no bytes until the thread writes it.
	if p.stackSize%mem.PageSize == 0 {
		err = p.AS.WriteShared(sp, 8, exitPage)
	} else {
		err = p.AS.WriteUint(sp, 8, threadExitMagic)
	}
	if err != nil {
		return nil, fmt.Errorf("start thread: seed stack: %w", err)
	}

	t := &Thread{
		ID:        p.nextTID,
		Name:      name,
		PC:        entry,
		State:     ThreadRunnable,
		StackBase: stackBase,
		StackSize: p.stackSize,
		proc:      p,
		frames: []Frame{{
			FuncEntry: entry,
			SPAtEntry: sp,
			RetPC:     threadExitMagic,
		}},
	}
	p.nextTID++
	t.Regs[16] = sp // SP register index
	for i, a := range args {
		t.Regs[1+i] = a
	}
	p.threads = append(p.threads, t)
	return t, nil
}

// exitPage is the top page of a fresh stack of whole pages: zero but for
// threadExitMagic at PageSize-64, the return address StartThread seeds.
// Nothing writes it; every such stack's top page is a view of it until the
// thread's first write there copies it.
var exitPage = func() *[mem.PageSize]byte {
	pg := new([mem.PageSize]byte)
	binary.LittleEndian.PutUint64(pg[mem.PageSize-64:], threadExitMagic)
	return pg
}()

// Start locates the executable module and starts its main thread at the
// entry point.
func (p *Process) Start(args ...uint64) (*Thread, error) {
	for _, m := range p.modules {
		if m.Image.Kind == bin.KindExecutable {
			t, err := p.StartThread("main", m.VA(m.Image.Entry), args...)
			if err == nil {
				t.isMain = true
			}
			return t, err
		}
	}
	return nil, fmt.Errorf("start: no executable module loaded")
}

// Threads returns all threads, including finished ones.
func (p *Process) Threads() []*Thread {
	out := make([]*Thread, len(p.threads))
	copy(out, p.threads)
	return out
}

// Thread returns the thread with the given ID.
func (p *Process) Thread(id int) (*Thread, bool) {
	for _, t := range p.threads {
		if t.ID == id {
			return t, true
		}
	}
	return nil, false
}

// Alive reports whether the process can still make progress now or in the
// future (i.e. it has not exited or crashed).
func (p *Process) Alive() bool {
	return p.State == ProcRunning || p.State == ProcIdle
}

// Exit terminates the process with the given code (HALT or exit syscall).
func (p *Process) Exit(code uint64) {
	p.State = ProcExited
	p.ExitCode = code
	for _, t := range p.threads {
		t.State = ThreadDone
	}
}

// crashProcess records the fatal exception and stops all threads.
func (p *Process) crashProcess(t *Thread, exc Exception) {
	p.State = ProcCrashed
	p.Crash = &CrashInfo{TID: t.ID, Exc: exc, Clock: p.Clock}
	for _, th := range p.threads {
		th.State = ThreadDone
	}
}

// RunResult summarizes a Run invocation.
type RunResult struct {
	State ProcState
	Ticks uint64 // virtual ticks consumed, including time skips
}

// Run executes up to budget virtual ticks. It returns when the budget is
// exhausted, the process exits or crashes, or every thread is blocked with
// no pending timeout (ProcIdle) — at which point the embedding monitor can
// inject external events (network input, corruption) and call Run again.
func (p *Process) Run(budget uint64) RunResult {
	start := p.Clock
	deadline := p.Clock + budget
	for p.Clock < deadline {
		if p.State == ProcExited || p.State == ProcCrashed {
			break
		}
		t := p.pickRunnable()
		if t == nil {
			// Nothing runnable: try a virtual time skip to the
			// earliest timer.
			wake := p.earliestWake()
			if wake == 0 {
				p.State = ProcIdle
				break
			}
			if wake > deadline {
				// The timer is beyond our budget; consume the
				// budget as idle time.
				p.Clock = deadline
				break
			}
			if wake > p.Clock {
				p.Clock = wake
			}
			p.fireTimers()
			continue
		}
		p.State = ProcRunning
		p.runQuantum(t, deadline)
		p.fireTimers()
	}
	if p.State == ProcRunning && p.pickRunnable() == nil && p.earliestWake() == 0 {
		p.State = ProcIdle
	}
	return RunResult{State: p.State, Ticks: p.Clock - start}
}

// RunUntilIdle keeps running in large increments until the process goes
// idle, exits or crashes, or maxTicks elapse.
func (p *Process) RunUntilIdle(maxTicks uint64) RunResult {
	start := p.Clock
	for p.Clock-start < maxTicks {
		res := p.Run(minU64(1_000_000, maxTicks-(p.Clock-start)))
		if res.State != ProcRunning {
			return RunResult{State: res.State, Ticks: p.Clock - start}
		}
	}
	return RunResult{State: p.State, Ticks: p.Clock - start}
}

func (p *Process) pickRunnable() *Thread {
	n := len(p.threads)
	for i := 0; i < n; i++ {
		t := p.threads[(p.rrIndex+i)%n]
		if t.State == ThreadRunnable {
			p.rrIndex = (p.rrIndex + i + 1) % n
			return t
		}
	}
	return nil
}

func (p *Process) earliestWake() uint64 {
	var min uint64
	for _, t := range p.threads {
		if t.State == ThreadBlocked && t.WakeAt != 0 {
			if min == 0 || t.WakeAt < min {
				min = t.WakeAt
			}
		}
	}
	return min
}

func (p *Process) fireTimers() {
	for _, t := range p.threads {
		if t.State == ThreadBlocked && t.WakeAt != 0 && t.WakeAt <= p.Clock {
			t.Wake(true)
		}
	}
}

// runQuantum executes up to the scheduler quantum of instructions on t.
func (p *Process) runQuantum(t *Thread, deadline uint64) {
	for i := 0; i < p.quantum && p.Clock < deadline; i++ {
		if t.State != ThreadRunnable || !p.Alive() {
			return
		}
		yielded := p.step(t)
		if yielded {
			return
		}
	}
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
