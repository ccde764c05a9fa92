package vm

import (
	"testing"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/isa"
	"crashresist/internal/mem"
)

// buildProc loads the image built by fill into a fresh process.
func buildProc(t *testing.T, platform Platform, fill func(b *asm.Builder)) *Process {
	t.Helper()
	b := asm.NewBuilder("test.exe", bin.KindExecutable)
	fill(b)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcess(Config{Platform: platform, Seed: 1234})
	if _, err := p.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	return p
}

// runMain starts the executable and runs it to completion (or idleness).
func runMain(t *testing.T, p *Process, args ...uint64) RunResult {
	t.Helper()
	if _, err := p.Start(args...); err != nil {
		t.Fatal(err)
	}
	return p.RunUntilIdle(10_000_000)
}

func TestArithmeticProgram(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R1, 6).
			MovRI(isa.R2, 7).
			MulRR(isa.R1, isa.R2). // 42
			AddRI(isa.R1, 8).      // 50
			SubRI(isa.R1, 20).     // 30
			ShlRI(isa.R1, 1).      // 60
			ShrRI(isa.R1, 2).      // 15
			XorRI(isa.R1, 0xFF).   // 240
			AndRI(isa.R1, 0xF0).   // 240
			OrRI(isa.R1, 0x0F).    // 255
			MovRR(isa.R0, isa.R1).
			Halt().
			EndFunc()
	})
	res := runMain(t, p)
	if res.State != ProcExited {
		t.Fatalf("state = %v, crash = %v", res.State, p.Crash)
	}
	if p.ExitCode != 255 {
		t.Errorf("exit code = %d, want 255", p.ExitCode)
	}
}

func TestDivAndNegNot(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R1, 100).
			MovRI(isa.R2, 7).
			DivRR(isa.R1, isa.R2). // 14
			Neg(isa.R1).           // -14
			Not(isa.R1).           // 13
			MovRR(isa.R0, isa.R1).
			Halt().
			EndFunc()
	})
	runMain(t, p)
	if p.ExitCode != 13 {
		t.Errorf("exit code = %d, want 13", p.ExitCode)
	}
}

func TestLoopAndConditionals(t *testing.T) {
	// Sum 1..10 with a loop.
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R1, 0).  // sum
			MovRI(isa.R2, 1).  // i
			MovRI(isa.R3, 10). // limit
			Label("loop").
			CmpRR(isa.R2, isa.R3).
			Jg("done").
			AddRR(isa.R1, isa.R2).
			AddRI(isa.R2, 1).
			Jmp("loop").
			Label("done").
			MovRR(isa.R0, isa.R1).
			Halt().
			EndFunc()
	})
	runMain(t, p)
	if p.ExitCode != 55 {
		t.Errorf("sum = %d, want 55", p.ExitCode)
	}
}

func TestUnsignedConditionals(t *testing.T) {
	// -1 (as unsigned max) is above 5: JB not taken, JAE taken.
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R1, ^uint64(0)).
			CmpRI(isa.R1, 5).
			Jb("below").
			MovRI(isa.R0, 1).
			Halt().
			Label("below").
			MovRI(isa.R0, 2).
			Halt().
			EndFunc()
	})
	runMain(t, p)
	if p.ExitCode != 1 {
		t.Errorf("exit = %d, want 1 (jb over unsigned max not taken)", p.ExitCode)
	}
}

func TestCallRetAndStack(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R1, 20).
			Call("double").
			MovRR(isa.R0, isa.R1).
			Halt().
			EndFunc()
		b.Func("double").
			Push(isa.R2).
			MovRI(isa.R2, 2).
			MulRR(isa.R1, isa.R2).
			Pop(isa.R2).
			Ret().
			EndFunc()
	})
	runMain(t, p)
	if p.ExitCode != 40 {
		t.Errorf("exit = %d, want 40", p.ExitCode)
	}
}

func TestCallRegister(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			LeaCode(isa.R5, "setter").
			CallR(isa.R5).
			Halt().
			EndFunc()
		b.Func("setter").
			MovRI(isa.R0, 77).
			Ret().
			EndFunc()
	})
	runMain(t, p)
	if p.ExitCode != 77 {
		t.Errorf("exit = %d, want 77", p.ExitCode)
	}
}

func TestDataAccess(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			LeaData(isa.R1, "value").
			Load(8, isa.R0, isa.R1, 0).
			LeaData(isa.R2, "slot").
			Store(8, isa.R2, 0, isa.R0).
			Load(4, isa.R0, isa.R2, 0).
			Halt().
			EndFunc()
		b.DataU64("value", 0x1_0000_0042)
		b.BSS("slot", 8)
	})
	runMain(t, p)
	if p.ExitCode != 0x42 {
		t.Errorf("exit = %#x, want 0x42 (load4 truncates)", p.ExitCode)
	}
}

func TestUnhandledFaultCrashesWindows(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R1, 0xdead0000).
			Load(8, isa.R0, isa.R1, 0).
			Halt().
			EndFunc()
	})
	res := runMain(t, p)
	if res.State != ProcCrashed || p.Crash == nil {
		t.Fatalf("state = %v, want crash", res.State)
	}
	if p.Crash.Exc.Code != ExcAccessViolation || p.Crash.Exc.Addr != 0xdead0000 {
		t.Errorf("crash = %v", p.Crash)
	}
	if !p.Crash.Exc.Unmapped {
		t.Error("fault should be unmapped")
	}
}

func TestUnhandledFaultCrashesLinux(t *testing.T) {
	p := buildProc(t, PlatformLinux, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R1, 0x1000).
			Store(8, isa.R1, 0, isa.R0).
			Halt().
			EndFunc()
	})
	res := runMain(t, p)
	if res.State != ProcCrashed {
		t.Fatalf("state = %v, want crash", res.State)
	}
}

func TestDivideByZeroException(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R1, 10).
			MovRI(isa.R2, 0).
			DivRR(isa.R1, isa.R2).
			Halt().
			EndFunc()
	})
	runMain(t, p)
	if p.Crash == nil || p.Crash.Exc.Code != ExcDivideByZero {
		t.Errorf("crash = %v, want divide by zero", p.Crash)
	}
}

func TestSEHCatchAll(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R1, 0xbad0000).
			Label("try").
			Load(8, isa.R0, isa.R1, 0).
			Label("try_end").
			MovRI(isa.R0, 1). // probe succeeded
			Halt().
			Label("handler").
			MovRI(isa.R0, 2). // probe faulted, handled
			Halt().
			EndFunc()
		b.Guard("main", "try", "try_end", asm.CatchAll, "handler")
	})
	res := runMain(t, p)
	if res.State != ProcExited {
		t.Fatalf("state = %v, crash = %v", res.State, p.Crash)
	}
	if p.ExitCode != 2 {
		t.Errorf("exit = %d, want 2 (handler path)", p.ExitCode)
	}
	if p.Stats.Faults != 1 || p.Stats.FaultsHandled != 1 {
		t.Errorf("stats = %+v", p.Stats)
	}
}

func TestSEHFilterAcceptsAV(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R1, 0xbad0000).
			Label("try").
			Load(8, isa.R0, isa.R1, 0).
			Label("try_end").
			MovRI(isa.R0, 1).
			Halt().
			Label("handler").
			MovRI(isa.R0, 2).
			Halt().
			EndFunc()
		// Filter: accept only access violations.
		b.Func("filter").
			MovRI(isa.R3, 0xC0000005).
			CmpRR(isa.R1, isa.R3).
			Jz("accept").
			MovRI(isa.R0, 0). // continue search
			Ret().
			Label("accept").
			MovRI(isa.R0, 1). // execute handler
			Ret().
			EndFunc()
		b.Guard("main", "try", "try_end", "filter", "handler")
	})
	runMain(t, p)
	if p.State != ProcExited || p.ExitCode != 2 {
		t.Errorf("state=%v exit=%d crash=%v, want handled exit 2", p.State, p.ExitCode, p.Crash)
	}
}

func TestSEHFilterRejects(t *testing.T) {
	// Filter only accepts divide-by-zero; AV crashes the process.
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R1, 0xbad0000).
			Label("try").
			Load(8, isa.R0, isa.R1, 0).
			Label("try_end").
			Halt().
			Label("handler").
			Halt().
			EndFunc()
		b.Func("filter").
			MovRI(isa.R3, 0xC0000094).
			CmpRR(isa.R1, isa.R3).
			Jz("accept").
			MovRI(isa.R0, 0).
			Ret().
			Label("accept").
			MovRI(isa.R0, 1).
			Ret().
			EndFunc()
		b.Guard("main", "try", "try_end", "filter", "handler")
	})
	res := runMain(t, p)
	if res.State != ProcCrashed {
		t.Errorf("state = %v, want crash (filter rejected)", res.State)
	}
}

func TestSEHGuardInCallerCatchesCalleeFault(t *testing.T) {
	// The guarded region covers a CALL; the fault happens in the callee.
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			Label("try").
			Call("deref").
			Label("try_end").
			MovRI(isa.R0, 1).
			Halt().
			Label("handler").
			MovRI(isa.R0, 2).
			Halt().
			EndFunc()
		b.Func("deref").
			MovRI(isa.R1, 0xbad0000).
			Load(8, isa.R0, isa.R1, 0).
			Ret().
			EndFunc()
		b.Guard("main", "try", "try_end", asm.CatchAll, "handler")
	})
	runMain(t, p)
	if p.State != ProcExited || p.ExitCode != 2 {
		t.Errorf("state=%v exit=%d, want handler in caller frame", p.State, p.ExitCode)
	}
}

func TestSEHRaiseSoftwareException(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			Label("try").
			Raise(0xE0001234).
			Label("try_end").
			Halt().
			Label("handler").
			// R0 holds the exception code on handler entry.
			Halt().
			EndFunc()
		b.Guard("main", "try", "try_end", asm.CatchAll, "handler")
	})
	runMain(t, p)
	if p.State != ProcExited || p.ExitCode != 0xE0001234 {
		t.Errorf("exit = %#x, want exception code in R0", p.ExitCode)
	}
}

func TestSEHNestedScopesInnermostFirst(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R1, 0xbad0000).
			Label("outer").
			Label("inner").
			Load(8, isa.R0, isa.R1, 0).
			Label("inner_end").
			Nop().
			Label("outer_end").
			Halt().
			Label("inner_handler").
			MovRI(isa.R0, 10).
			Halt().
			Label("outer_handler").
			MovRI(isa.R0, 20).
			Halt().
			EndFunc()
		b.Guard("main", "outer", "outer_end", asm.CatchAll, "outer_handler")
		b.Guard("main", "inner", "inner_end", asm.CatchAll, "inner_handler")
	})
	runMain(t, p)
	if p.ExitCode != 10 {
		t.Errorf("exit = %d, want inner handler (10)", p.ExitCode)
	}
}

func TestLinuxSignalHandler(t *testing.T) {
	p := buildProc(t, PlatformLinux, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R1, 0xbad0000).
			Load(8, isa.R5, isa.R1, 0). // faults; handler runs; resumes after
			LeaData(isa.R2, "flag").    // registers are restored on sigreturn,
			Load(8, isa.R0, isa.R2, 0). // so the handler communicates via memory
			Halt().
			EndFunc()
		b.Func("segv_handler").
			MovRI(isa.R4, 99).
			LeaData(isa.R5, "flag").
			Store(8, isa.R5, 0, isa.R4).
			Ret().
			EndFunc()
		b.BSS("flag", 8)
	})
	mod := p.Modules()[0]
	off, ok := mod.Image.Export("segv_handler")
	_ = ok
	// Register the handler directly (the kernel's sigaction does this in
	// integration tests).
	sym, _ := mod.Image.SymbolAt(0)
	_ = sym
	for _, s := range mod.Image.Symbols {
		if s.Name == "segv_handler" {
			off = s.Offset
		}
	}
	p.SetSignalHandler(SigSegv, mod.VA(off))
	runMain(t, p)
	if p.State != ProcExited || p.ExitCode != 99 {
		t.Errorf("state=%v exit=%d crash=%v, want handler-set 99", p.State, p.ExitCode, p.Crash)
	}
	if p.Stats.FaultsHandled != 1 {
		t.Errorf("FaultsHandled = %d, want 1", p.Stats.FaultsHandled)
	}
}

func TestMappedOnlyAVPolicy(t *testing.T) {
	build := func(policy Policy) *Process {
		b := asm.NewBuilder("test.exe", bin.KindExecutable)
		b.Func("main").Entry("main").
			MovRI(isa.R1, 0xbad0000).
			Label("try").
			Load(8, isa.R0, isa.R1, 0).
			Label("try_end").
			MovRI(isa.R0, 1).
			Halt().
			Label("handler").
			MovRI(isa.R0, 2).
			Halt().
			EndFunc()
		b.Guard("main", "try", "try_end", asm.CatchAll, "handler")
		img, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		p := NewProcess(Config{Platform: PlatformWindows, Seed: 5})
		p.Policy = policy
		if _, err := p.LoadImage(img); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Without the policy the catch-all handles the unmapped probe.
	p := build(Policy{})
	runMain(t, p)
	if p.State != ProcExited || p.ExitCode != 2 {
		t.Fatalf("baseline: state=%v exit=%d", p.State, p.ExitCode)
	}

	// With the policy the same probe is fatal.
	p = build(Policy{MappedOnlyAV: true})
	runMain(t, p)
	if p.State != ProcCrashed {
		t.Errorf("mapped-only: state=%v, want crash", p.State)
	}
}

func TestMappedOnlyAVStillAllowsGuardPageFaults(t *testing.T) {
	// A fault on a mapped-but-unreadable page (guard-page style, as in the
	// Firefox optimization) must remain catchable under the policy.
	b := asm.NewBuilder("test.exe", bin.KindExecutable)
	b.Func("main").Entry("main").
		LeaData(isa.R1, "guarded").
		Label("try").
		Store(8, isa.R1, 0, isa.R2).
		Label("try_end").
		MovRI(isa.R0, 1).
		Halt().
		Label("handler").
		MovRI(isa.R0, 2).
		Halt().
		EndFunc()
	b.Guard("main", "try", "try_end", asm.CatchAll, "handler")
	b.BSS("guarded", 8)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcess(Config{Platform: PlatformWindows, Seed: 5})
	p.Policy = Policy{MappedOnlyAV: true}
	mod, err := p.LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	// Revoke write permission on the BSS page: mapped but protected.
	bssVA := mod.VA(img.BSSStart())
	if err := p.AS.Protect(bssVA&^0xFFF, 0x1000, 0); err != nil {
		t.Fatal(err)
	}
	runMain(t, p)
	if p.State != ProcExited || p.ExitCode != 2 {
		t.Errorf("state=%v exit=%d crash=%v, want guard fault handled", p.State, p.ExitCode, p.Crash)
	}
}

func TestMultipleThreadsInterleave(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R0, 0).
			Halt().
			EndFunc()
		b.Func("worker").
			// Increment counters[R2] (per-thread slot) R1 times; a
			// shared cell would race under preemption, exactly as
			// on real hardware.
			LeaData(isa.R3, "counters").
			AddRR(isa.R3, isa.R2).
			Label("loop").
			Load(8, isa.R4, isa.R3, 0).
			AddRI(isa.R4, 1).
			Store(8, isa.R3, 0, isa.R4).
			SubRI(isa.R1, 1).
			TestRR(isa.R1, isa.R1).
			Jnz("loop").
			Ret().
			EndFunc()
		b.BSS("counters", 24)
		b.Export("worker", "worker")
		b.Export("counters", "counters")
	})
	mod := p.Modules()[0]
	workerOff, _ := mod.Image.Export("worker")
	countersOff, _ := mod.Image.Export("counters")
	for i := 0; i < 3; i++ {
		if _, err := p.StartThread("w", mod.VA(workerOff), 100, uint64(i*8)); err != nil {
			t.Fatal(err)
		}
	}
	p.RunUntilIdle(1_000_000)
	var total uint64
	for i := 0; i < 3; i++ {
		v, err := p.AS.ReadUint(mod.VA(countersOff)+uint64(i*8), 8)
		if err != nil {
			t.Fatal(err)
		}
		total += v
	}
	if total != 300 {
		t.Errorf("total = %d, want 300", total)
	}
}

func TestThreadCrashKillsProcessWindows(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			Label("spin").
			Yield().
			Jmp("spin").
			EndFunc()
		b.Func("bad").
			MovRI(isa.R1, 0xbad0000).
			Load(8, isa.R0, isa.R1, 0).
			Ret().
			EndFunc()
		b.Export("bad", "bad")
	})
	mod := p.Modules()[0]
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	off, _ := mod.Image.Export("bad")
	if _, err := p.StartThread("bad", mod.VA(off)); err != nil {
		t.Fatal(err)
	}
	res := p.RunUntilIdle(1_000_000)
	if res.State != ProcCrashed {
		t.Errorf("state = %v, want crashed (hard crash policy)", res.State)
	}
}

func TestBlockAndWake(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			Label("spin").
			Yield().
			Jmp("spin").
			EndFunc()
	})
	main, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	var resumed bool
	main.Block(0, func(timedOut bool) {
		resumed = true
		if timedOut {
			t.Error("wake reported timeout for explicit wake")
		}
	})
	res := p.Run(1000)
	if res.State != ProcIdle {
		t.Fatalf("state = %v, want idle", res.State)
	}
	main.Wake(false)
	if !resumed {
		t.Error("resume continuation not called")
	}
	if res := p.Run(1000); res.State != ProcRunning && res.State != ProcIdle {
		t.Errorf("state after wake = %v", res.State)
	}
}

func TestTimedBlockFiresByVirtualClock(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			Label("spin").
			Yield().
			Jmp("spin").
			EndFunc()
	})
	main, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	var timedOut bool
	wakeAt := p.Clock + 5000
	main.Block(wakeAt, func(to bool) { timedOut = to })
	p.Run(100_000)
	if !timedOut {
		t.Fatal("timer never fired")
	}
	if p.Clock < wakeAt {
		t.Errorf("clock %d < wakeAt %d", p.Clock, wakeAt)
	}
}

func TestRunBudgetRespected(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			Label("spin").
			Jmp("spin").
			EndFunc()
	})
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	res := p.Run(1000)
	if res.State != ProcRunning {
		t.Errorf("state = %v, want running (budget exhausted)", res.State)
	}
	if res.Ticks != 1000 {
		t.Errorf("ticks = %d, want exactly 1000", res.Ticks)
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() (uint64, uint64) {
		p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
			b.Func("main").Entry("main").
				MovRI(isa.R1, 1000).
				Label("loop").
				SubRI(isa.R1, 1).
				TestRR(isa.R1, isa.R1).
				Jnz("loop").
				Halt().
				EndFunc()
		})
		runMain(t, p)
		return p.Clock, p.Modules()[0].Base
	}
	c1, b1 := run()
	c2, b2 := run()
	if c1 != c2 || b1 != b2 {
		t.Errorf("nondeterministic: clocks %d/%d bases %#x/%#x", c1, c2, b1, b2)
	}
}

func TestCrossModuleCall(t *testing.T) {
	// lib.dll exports a function; main.exe imports and calls it.
	lib := asm.NewBuilder("lib.dll", bin.KindLibrary)
	lib.Func("answer").
		MovRI(isa.R0, 4242).
		Ret().
		EndFunc()
	lib.Export("answer", "answer")
	libImg, err := lib.Build()
	if err != nil {
		t.Fatal(err)
	}

	main := asm.NewBuilder("main.exe", bin.KindExecutable)
	main.Func("main").Entry("main").
		CallImport("lib.dll", "answer").
		Halt().
		EndFunc()
	mainImg, err := main.Build()
	if err != nil {
		t.Fatal(err)
	}

	p := NewProcess(Config{Platform: PlatformWindows, Seed: 9})
	if _, err := p.LoadImage(libImg); err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadImage(mainImg); err != nil {
		t.Fatal(err)
	}
	runMain(t, p)
	if p.ExitCode != 4242 {
		t.Errorf("exit = %d, want 4242", p.ExitCode)
	}
}

func TestSymbolAt(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").Halt().EndFunc()
	})
	mod := p.Modules()[0]
	got := p.SymbolAt(mod.VA(0))
	if got != "test.exe!main+0x0" {
		t.Errorf("SymbolAt = %q", got)
	}
	if got := p.SymbolAt(0x1); got != "0x1" {
		t.Errorf("SymbolAt outside modules = %q", got)
	}
}

func TestExceptionString(t *testing.T) {
	e := Exception{Code: ExcAccessViolation, Addr: 0x1234, PC: 0x10, Unmapped: true}
	if got := e.String(); got == "" {
		t.Error("empty exception string")
	}
	if (Exception{Code: ExcAccessViolation}).Signal() != SigSegv {
		t.Error("AV should map to SIGSEGV")
	}
	if (Exception{Code: ExcDivideByZero}).Signal() != SigFpe {
		t.Error("div-zero should map to SIGFPE")
	}
	if (Exception{Code: ExcIllegalInstruction}).Signal() != SigIll {
		t.Error("illegal should map to SIGILL")
	}
}

func TestStartErrors(t *testing.T) {
	p := NewProcess(Config{Platform: PlatformWindows, Seed: 1})
	if _, err := p.Start(); err == nil {
		t.Error("Start with no executable should fail")
	}
	lib := asm.NewBuilder("l.dll", bin.KindLibrary)
	lib.Func("f").Ret().EndFunc()
	img, err := lib.Build()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := p.LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.StartThread("x", mod.VA(0), 1, 2, 3, 4, 5, 6); err == nil {
		t.Error("StartThread with 6 args should fail")
	}
}

func TestLoadImageUnresolvedImport(t *testing.T) {
	b := asm.NewBuilder("t.exe", bin.KindExecutable)
	b.Func("main").Entry("main").CallImport("missing.dll", "f").Halt().EndFunc()
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcess(Config{Platform: PlatformWindows, Seed: 1})
	if _, err := p.LoadImage(img); err == nil {
		t.Error("import from unloaded module should fail")
	}
}

func TestVectoredExceptionHandler(t *testing.T) {
	// A VEH registered at run time handles the fault with no scope-table
	// entry anywhere — the construct the static pipeline cannot see.
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R1, 0xbad0000).
			Load(8, isa.R5, isa.R1, 0). // fault; VEH resumes past it
			LeaData(isa.R2, "flag").
			Load(8, isa.R0, isa.R2, 0).
			Halt().
			EndFunc()
		// VEH: accept only access violations; record in "flag";
		// continue execution.
		b.Func("veh").
			MovRI(isa.R3, 0xC0000005).
			CmpRR(isa.R1, isa.R3).
			Jnz("veh_pass").
			MovRI(isa.R4, 7).
			LeaData(isa.R5, "flag").
			Store(8, isa.R5, 0, isa.R4).
			MovRI(isa.R0, 0).
			Not(isa.R0). // -1: continue execution
			Ret().
			Label("veh_pass").
			MovRI(isa.R0, 0). // continue search
			Ret().
			EndFunc()
		b.BSS("flag", 8)
		b.Export("veh", "veh")
	})
	mod := p.Modules()[0]
	vehOff, _ := mod.Image.Export("veh")
	p.AddVEHandler(mod.VA(vehOff))
	runMain(t, p)
	if p.State != ProcExited || p.ExitCode != 7 {
		t.Errorf("state=%v exit=%d crash=%v, want VEH-handled 7", p.State, p.ExitCode, p.Crash)
	}
	if got := p.VEHandlers(); len(got) != 1 || got[0] != mod.VA(vehOff) {
		t.Errorf("VEHandlers = %#x", got)
	}
}

func TestVEHContinueSearchFallsThroughToScopes(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R1, 0xbad0000).
			Label("try").
			Load(8, isa.R5, isa.R1, 0).
			Label("try_end").
			MovRI(isa.R0, 1).
			Halt().
			Label("handler").
			MovRI(isa.R0, 2).
			Halt().
			EndFunc()
		b.Func("veh").
			MovRI(isa.R0, 0). // always continue search
			Ret().
			EndFunc()
		b.Guard("main", "try", "try_end", asm.CatchAll, "handler")
		b.Export("veh", "veh")
	})
	mod := p.Modules()[0]
	vehOff, _ := mod.Image.Export("veh")
	p.AddVEHandler(mod.VA(vehOff))
	runMain(t, p)
	if p.ExitCode != 2 {
		t.Errorf("exit = %d, want scope handler (2)", p.ExitCode)
	}
}

func TestThreadOnStack(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").Halt().EndFunc()
	})
	th, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if !th.OnStack(th.Reg(isa.SP)) {
		t.Error("SP not on stack")
	}
	if th.OnStack(0x1) {
		t.Error("0x1 reported on stack")
	}
}

func TestExecuteDataSectionFaults(t *testing.T) {
	// W^X: jumping into the (rw-) data section must raise an exec fault.
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			LeaData(isa.R1, "blob").
			JmpR(isa.R1).
			Halt().
			EndFunc()
		b.Data("blob", []byte{0x01, 0x02, 0x03, 0x04})
	})
	runMain(t, p)
	if p.State != ProcCrashed {
		t.Fatalf("state = %v, want crash", p.State)
	}
	if p.Crash.Exc.Code != ExcAccessViolation {
		t.Errorf("code = %#x", p.Crash.Exc.Code)
	}
	if p.Crash.Exc.Unmapped {
		t.Error("data page is mapped; fault must be a protection fault")
	}
}

func TestStackExhaustionCrashes(t *testing.T) {
	// Unbounded recursion runs off the mapped stack and crashes.
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			Call("recurse").
			Halt().
			EndFunc()
		b.Func("recurse").
			Push(isa.R1).
			Call("recurse").
			Pop(isa.R1).
			Ret().
			EndFunc()
	})
	res := runMain(t, p)
	if res.State != ProcCrashed {
		t.Fatalf("state = %v, want crash", res.State)
	}
	if p.Crash.Exc.Access != mem.AccessWrite {
		t.Errorf("access = %v, want write (stack push)", p.Crash.Exc.Access)
	}
}

func TestCorruptedReturnAddressCrashes(t *testing.T) {
	// Overwriting the saved return address with garbage sends RET into
	// unmapped memory: an exec fault at the bogus PC.
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			Call("victim").
			Halt().
			EndFunc()
		b.Func("victim").
			MovRI(isa.R1, 0x41414141).
			Store(8, isa.SP, 0, isa.R1). // smash [sp] = return address
			Ret().
			EndFunc()
	})
	runMain(t, p)
	if p.State != ProcCrashed {
		t.Fatalf("state = %v, want crash", p.State)
	}
	if p.Crash.Exc.PC != 0x41414141 {
		t.Errorf("crash pc = %#x, want hijacked 0x41414141", p.Crash.Exc.PC)
	}
}

func TestFilterFaultFallsThroughToNextScope(t *testing.T) {
	// A filter that itself faults must be treated as continue-search, so
	// the outer catch-all still handles the exception.
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R1, 0xbad0000).
			Label("outer").
			Label("inner").
			Load(8, isa.R0, isa.R1, 0).
			Label("inner_end").
			Nop().
			Label("outer_end").
			Halt().
			Label("inner_handler").
			MovRI(isa.R0, 10).
			Halt().
			Label("outer_handler").
			MovRI(isa.R0, 20).
			Halt().
			EndFunc()
		// The inner filter dereferences unmapped memory itself.
		b.Func("bad_filter").
			MovRI(isa.R4, 0xbad1000).
			Load(8, isa.R0, isa.R4, 0).
			Ret().
			EndFunc()
		b.Guard("main", "outer", "outer_end", asm.CatchAll, "outer_handler")
		b.Guard("main", "inner", "inner_end", "bad_filter", "inner_handler")
	})
	runMain(t, p)
	if p.State != ProcExited || p.ExitCode != 20 {
		t.Errorf("state=%v exit=%d, want outer handler (20)", p.State, p.ExitCode)
	}
}

func TestRaiseInsideHandlerEscalates(t *testing.T) {
	// An exception raised inside a handler (not the filter) dispatches
	// again; with no other scope covering the handler, it is fatal.
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R1, 0xbad0000).
			Label("try").
			Load(8, isa.R0, isa.R1, 0).
			Label("try_end").
			Halt().
			Label("handler").
			Raise(0xE0000001). // handler throws
			Halt().
			EndFunc()
		b.Guard("main", "try", "try_end", asm.CatchAll, "handler")
	})
	runMain(t, p)
	if p.State != ProcCrashed {
		t.Fatalf("state = %v, want crash", p.State)
	}
	if p.Crash.Exc.Code != 0xE0000001 {
		t.Errorf("crash code = %#x", p.Crash.Exc.Code)
	}
	if p.Stats.FaultsHandled != 1 || p.Stats.Faults != 2 {
		t.Errorf("stats = %+v", p.Stats)
	}
}

func TestProcessAccessors(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").Yield().Halt().EndFunc()
	})
	if _, ok := p.Module("test.exe"); !ok {
		t.Error("Module by name failed")
	}
	if _, ok := p.Module("nope.dll"); ok {
		t.Error("missing module found")
	}
	th, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Threads(); len(got) != 1 || got[0] != th {
		t.Errorf("Threads = %v", got)
	}
	if got, ok := p.Thread(th.ID); !ok || got != th {
		t.Errorf("Thread(%d) = %v %v", th.ID, got, ok)
	}
	if _, ok := p.Thread(99); ok {
		t.Error("Thread(99) found")
	}
	th.SetReg(isa.R5, 123)
	if th.Reg(isa.R5) != 123 {
		t.Error("SetReg/Reg mismatch")
	}
	if th.Proc() != p {
		t.Error("Proc backref wrong")
	}
	if th.InFilter() {
		t.Error("fresh thread reported in filter")
	}
	frames := th.Frames()
	if len(frames) != 1 {
		t.Errorf("initial frames = %d", len(frames))
	}
	if PlatformLinux.String() != "linux" || PlatformWindows.String() != "windows" || Platform(9).String() != "platform?" {
		t.Error("platform strings")
	}
	for s := ProcRunning; s <= ProcCrashed; s++ {
		if s.String() == "state?" {
			t.Errorf("state %d unnamed", s)
		}
	}
	ci := &CrashInfo{TID: 1, Exc: Exception{Code: ExcAccessViolation, Addr: 1, PC: 2}, Clock: 3}
	if ci.String() == "" {
		t.Error("empty crash string")
	}
}

func TestCallImportBadSlot(t *testing.T) {
	// A CALLI with an out-of-range slot is an illegal instruction.
	b := asm.NewBuilder("t.exe", bin.KindExecutable)
	b.Func("main").Entry("main").
		CallImport("", "OnlySlot").
		Halt().
		EndFunc()
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the encoded slot index to 7 (out of range).
	for off := 0; off < len(img.Text); {
		ins, n, err := isa.Decode(img.Text[off:])
		if err != nil {
			t.Fatal(err)
		}
		if ins.Op == isa.OpCallI {
			ins.Disp = 7
			patched, err := isa.EncodeAll([]isa.Instruction{ins})
			if err != nil {
				t.Fatal(err)
			}
			copy(img.Text[off:], patched)
		}
		off += n
	}
	p := NewProcess(Config{Platform: PlatformWindows, Seed: 3})
	p.API = slotAPI{}
	if _, err := p.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	runMain(t, p)
	if p.State != ProcCrashed || p.Crash.Exc.Code != ExcIllegalInstruction {
		t.Errorf("state=%v crash=%v, want illegal instruction", p.State, p.Crash)
	}
}

// TestAPIFaultAtCallSite checks that an exception an API returns is
// attributed to its CALLI: an unhandled one crashes the process with the
// call's PC, whatever PC the API's stub gave it.
func TestAPIFaultAtCallSite(t *testing.T) {
	p := NewProcess(Config{Platform: PlatformWindows, Seed: 3})
	p.API = faultAPI{}
	b := asm.NewBuilder("t.exe", bin.KindExecutable)
	b.Func("main").Entry("main").
		MovRI(isa.R1, 0xbad0000).
		CallImport("", "Deref").
		Halt().
		EndFunc()
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := p.LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	runMain(t, p)
	mov, _, err := isa.Decode(img.Text[img.Entry:])
	if err != nil {
		t.Fatal(err)
	}
	call := mod.VA(img.Entry) + uint64(mov.Size())
	if p.State != ProcCrashed || p.Crash.Exc.Code != ExcAccessViolation || p.Crash.Exc.PC != call || p.Crash.Exc.Addr != 0xbad0000 {
		t.Errorf("state %v crash %v, want an access violation at %#x at the call %#x", p.State, p.Crash, uint64(0xbad0000), call)
	}
}

// faultAPI faults every call in its user-mode stub, on the pointer in R1.
type faultAPI struct{}

func (faultAPI) Resolve(string) (uint32, error) { return 1, nil }

func (faultAPI) Call(p *Process, t *Thread, id uint32) *Exception {
	return &Exception{Code: ExcAccessViolation, PC: 0x7ff00000, Addr: t.Reg(isa.R1), Access: mem.AccessRead, Unmapped: true}
}

type slotAPI struct{}

func (slotAPI) Resolve(string) (uint32, error) { return 1, nil }

func (slotAPI) Call(p *Process, t *Thread, id uint32) *Exception {
	t.SetReg(0, 0)
	return nil
}

func TestSyscallWithoutHandlerIsIllegal(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").Syscall().Halt().EndFunc()
	})
	runMain(t, p)
	if p.State != ProcCrashed || p.Crash.Exc.Code != ExcIllegalInstruction {
		t.Errorf("state=%v crash=%v", p.State, p.Crash)
	}
}

func TestExitSetsAllThreadsDone(t *testing.T) {
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").Halt().EndFunc()
		b.Func("spin").Label("s").Yield().Jmp("s").EndFunc()
		b.Export("spin", "spin")
	})
	mod := p.Modules()[0]
	off, _ := mod.Image.Export("spin")
	if _, err := p.StartThread("w", mod.VA(off)); err != nil {
		t.Fatal(err)
	}
	runMain(t, p)
	for _, th := range p.Threads() {
		if th.State != ThreadDone {
			t.Errorf("thread %d state = %v after exit", th.ID, th.State)
		}
	}
}

func TestJleJgeBoundaries(t *testing.T) {
	// Exercise every remaining conditional at its boundary value.
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R1, 5).
			MovRI(isa.R0, 0).
			CmpRI(isa.R1, 5).
			Jle("a"). // taken (equal)
			Halt().
			Label("a").
			OrRI(isa.R0, 1).
			CmpRI(isa.R1, 5).
			Jge("b"). // taken (equal)
			Halt().
			Label("b").
			OrRI(isa.R0, 2).
			CmpRI(isa.R1, 6).
			Jl("c"). // taken (less)
			Halt().
			Label("c").
			OrRI(isa.R0, 4).
			CmpRI(isa.R1, 4).
			Jg("d"). // taken (greater)
			Halt().
			Label("d").
			OrRI(isa.R0, 8).
			CmpRI(isa.R1, 5).
			Jae("e"). // taken (equal, unsigned)
			Halt().
			Label("e").
			OrRI(isa.R0, 16).
			Halt().
			EndFunc()
	})
	runMain(t, p)
	if p.ExitCode != 31 {
		t.Errorf("conditional checks = %05b, want 11111", p.ExitCode)
	}
}
