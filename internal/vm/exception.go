package vm

import (
	"crashresist/internal/bin"
	"crashresist/internal/faultinject"
	"crashresist/internal/isa"
)

// filterBudget bounds the instructions a single filter-function evaluation
// may execute before it is abandoned (disposition: continue search).
const filterBudget = 100_000

// dispatchException routes an exception through the platform's exception
// model, crashing the process if nothing handles it.
func (p *Process) dispatchException(t *Thread, exc Exception) {
	p.Stats.Faults++
	if exc.Code == ExcAccessViolation && exc.Unmapped {
		p.Stats.FaultsUnmapped++
	}
	if p.Tracer != nil {
		p.Tracer.OnException(t, exc)
	}
	// §VII-C countermeasure: unmapped access violations are uncatchable.
	if p.Policy.MappedOnlyAV && exc.Code == ExcAccessViolation && exc.Unmapped {
		p.crashProcess(t, exc)
		return
	}
	// Injected dispatch failure: the exception machinery itself breaks
	// (keyed by the virtual clock), terminating the process as if no
	// handler search had run.
	if fp := p.FaultPlan; fp != nil && fp.Should(faultinject.SiteVMDispatch, p.Clock) {
		p.Stats.FaultsInjected++
		p.crashProcess(t, exc)
		return
	}
	switch p.Platform {
	case PlatformWindows:
		p.dispatchSEH(t, exc)
	case PlatformLinux:
		p.dispatchSignal(t, exc)
	default:
		p.crashProcess(t, exc)
	}
}

// dispatchSEH first offers the exception to vectored handlers (registered
// at run time, invisible to static scope tables), then walks the thread's
// frames innermost-first looking for a scope entry guarding the frame's
// current instruction whose filter accepts the exception, unwinding to that
// frame and resuming at the handler target.
func (p *Process) dispatchSEH(t *Thread, exc Exception) {
	for _, va := range p.veh {
		disp := p.runHandlerFunc(t, va, exc)
		if disp == DispositionContinueExecution {
			// The vectored handler resolved the fault; resume past
			// the faulting instruction (see the scope-handler
			// comment below on this deviation from resume-at).
			if skipped, ok := p.skipInstruction(exc.PC); ok {
				t.PC = skipped
				p.Stats.FaultsHandled++
				if p.Tracer != nil {
					p.Tracer.OnExceptionHandled(t, exc, va)
				}
				return
			}
		}
	}
	p.dispatchScopes(t, exc)
}

// dispatchScopes is the frame-based half of SEH dispatch.
func (p *Process) dispatchScopes(t *Thread, exc Exception) {
	for fi := len(t.frames) - 1; fi >= 0; fi-- {
		// The PC to match against scope ranges: the faulting PC for
		// the innermost frame; for outer frames, the instruction
		// containing the call (return address minus one byte).
		pcInFrame := exc.PC
		if fi < len(t.frames)-1 {
			ret := t.frames[fi+1].RetPC
			if ret == 0 || isMagicPC(ret) {
				continue
			}
			pcInFrame = ret - 1
		}
		mod, ok := p.FindModule(pcInFrame)
		if !ok {
			continue
		}
		for _, scope := range mod.ScopesAt(pcInFrame) {
			disp := p.evalFilter(t, mod, scope, exc)
			switch disp {
			case DispositionExecuteHandler:
				// Unwind: discard frames above fi, restore the
				// guarded function's entry SP, land on the
				// handler target.
				t.frames = t.frames[:fi+1]
				t.Regs[16] = t.frames[fi].SPAtEntry
				t.PC = mod.VA(scope.Target)
				t.Regs[0] = uint64(exc.Code)
				p.Stats.FaultsHandled++
				if p.Tracer != nil {
					p.Tracer.OnExceptionHandled(t, exc, t.PC)
				}
				return
			case DispositionContinueExecution:
				// Resume past the faulting instruction. (Real
				// SEH resumes *at* it, assuming the filter
				// fixed the cause; our filters cannot patch
				// machine state, so the VM skips instead —
				// this models the "swallowed exception" class
				// of §III-C.)
				if skipped, ok := p.skipInstruction(exc.PC); ok {
					t.PC = skipped
					p.Stats.FaultsHandled++
					if p.Tracer != nil {
						p.Tracer.OnExceptionHandled(t, exc, t.PC)
					}
					return
				}
			}
			// DispositionContinueSearch: try next scope/frame.
		}
	}
	p.crashProcess(t, exc)
}

// evalFilter returns the disposition of a scope's filter for the exception.
// Catch-all scopes accept without running code. Filter functions execute on
// the faulting thread in a bounded sub-interpreter; any fault or budget
// overrun inside the filter yields "continue search".
func (p *Process) evalFilter(t *Thread, mod *bin.Module, scope bin.ScopeEntry, exc Exception) uint64 {
	if scope.IsCatchAll() {
		return DispositionExecuteHandler
	}
	return p.runHandlerFunc(t, mod.VA(scope.Filter), exc)
}

// runHandlerFunc executes a filter or vectored-handler function at
// filterVA on the faulting thread in a bounded scratch context and returns
// its disposition (R0).
func (p *Process) runHandlerFunc(t *Thread, filterVA uint64, exc Exception) uint64 {
	// Snapshot thread state; the filter runs in a scratch context.
	saved := *t
	savedFrames := make([]Frame, len(t.frames))
	copy(savedFrames, t.frames)

	// Scratch stack below the current SP (stack grows down; the region
	// below SP inside the mapped stack is free).
	sp := t.Regs[16] - 512
	if err := p.AS.WriteUint(sp, 8, uint64(filterDoneMagic)); err != nil {
		return DispositionContinueSearch
	}
	t.Regs[16] = sp
	t.Regs[1] = uint64(exc.Code)
	t.Regs[2] = exc.Addr
	t.PC = filterVA
	t.frames = append(t.frames, Frame{FuncEntry: filterVA, SPAtEntry: sp, RetPC: filterDoneMagic})
	t.filterDepth++

	disp := uint64(DispositionContinueSearch)
	for steps := 0; steps < filterBudget; steps++ {
		if t.PC == filterDoneMagic {
			disp = t.Regs[0]
			break
		}
		if isMagicPC(t.PC) {
			break // filter tried to exit the thread; abandon
		}
		if excInner := p.execOne(t); excInner != nil {
			break // fault inside the filter: continue search
		}
		if t.State != ThreadRunnable {
			break // filter blocked (syscall); abandon
		}
	}

	// Restore the interrupted context.
	frames := t.frames[:0]
	frames = append(frames, savedFrames...)
	*t = saved
	t.frames = frames
	return disp
}

// dispatchSignal implements the Linux model: a registered handler for the
// exception's signal runs with (signo, addr) in R1/R2; returning from the
// handler resumes execution after the faulting instruction. Without a
// handler the process terminates.
func (p *Process) dispatchSignal(t *Thread, exc Exception) {
	handler, ok := p.SignalHandlers[exc.Signal()]
	if !ok || handler == 0 {
		p.crashProcess(t, exc)
		return
	}
	resumeAt, ok := p.skipInstruction(exc.PC)
	if !ok {
		p.crashProcess(t, exc)
		return
	}
	ctx := sigCtx{regs: t.Regs, pc: resumeAt, resume: resumeAt, frames: len(t.frames)}
	t.savedSigCtx = append(t.savedSigCtx, ctx)

	sp := t.Regs[16] - 512
	if err := p.AS.WriteUint(sp, 8, uint64(sigReturnMagic)); err != nil {
		p.crashProcess(t, exc)
		return
	}
	t.Regs[16] = sp
	t.Regs[1] = uint64(exc.Signal())
	t.Regs[2] = exc.Addr
	t.PC = handler
	t.frames = append(t.frames, Frame{FuncEntry: handler, SPAtEntry: sp, RetPC: sigReturnMagic})
	p.Stats.FaultsHandled++
	if p.Tracer != nil {
		p.Tracer.OnExceptionHandled(t, exc, handler)
	}
}

// sigReturn restores the context saved by dispatchSignal.
func (p *Process) sigReturn(t *Thread) {
	if len(t.savedSigCtx) == 0 {
		p.crashProcess(t, Exception{Code: ExcIllegalInstruction, PC: t.PC})
		return
	}
	ctx := t.savedSigCtx[len(t.savedSigCtx)-1]
	t.savedSigCtx = t.savedSigCtx[:len(t.savedSigCtx)-1]
	t.Regs = ctx.regs
	t.PC = ctx.pc
	if ctx.frames <= len(t.frames) {
		t.frames = t.frames[:ctx.frames]
	}
}

// skipInstruction returns the address of the instruction after pc.
func (p *Process) skipInstruction(pc uint64) (uint64, bool) {
	var buf [10]byte
	code, err := p.AS.FetchExec(pc, len(buf), buf[:0])
	if err != nil {
		return 0, false
	}
	_, size, err := isa.Decode(code)
	if err != nil {
		return 0, false
	}
	return pc + uint64(size), true
}

func isMagicPC(pc uint64) bool {
	switch pc {
	case threadExitMagic, filterDoneMagic, sigReturnMagic:
		return true
	}
	return false
}
