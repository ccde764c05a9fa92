package trace_test

import (
	"maps"
	"testing"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/isa"
	"crashresist/internal/mem"
	"crashresist/internal/targets"
	"crashresist/internal/trace"
	"crashresist/internal/vm"
)

// tee hands every event to both recorders, so they observe one run.
type tee struct{ a, b *trace.Recorder }

func (t tee) OnInstruction(th *vm.Thread, pc uint64, ins isa.Instruction) {
	t.a.OnInstruction(th, pc, ins)
	t.b.OnInstruction(th, pc, ins)
}
func (t tee) OnAPICall(th *vm.Thread, callPC uint64, id uint32) {
	t.a.OnAPICall(th, callPC, id)
	t.b.OnAPICall(th, callPC, id)
}
func (t tee) OnException(th *vm.Thread, exc vm.Exception) {
	t.a.OnException(th, exc)
	t.b.OnException(th, exc)
}
func (t tee) OnExceptionHandled(th *vm.Thread, exc vm.Exception, handlerPC uint64) {
	t.a.OnExceptionHandled(th, exc, handlerPC)
	t.b.OnExceptionHandled(th, exc, handlerPC)
}

// recordBoth attaches two coverage recorders to p, one counting through the
// predecoded tables' numbering and one on the per-PC reference path.
func recordBoth(p *vm.Process) (fast, ref *trace.Recorder) {
	fast, ref = trace.NewRecorder(), trace.NewRecorder()
	fast.EnableCoverage()
	ref.EnableCoverage()
	trace.UseReferenceCoverage(ref)
	fast.Attach(p)
	ref.Attach(p)
	p.Tracer = tee{fast, ref}
	return fast, ref
}

// sameHits fails t unless both recorders report the same per-scope hits,
// and at least one scope was hit. It returns how many PCs the fast
// recorder's per-PC map holds.
func sameHits(t *testing.T, fast, ref *trace.Recorder) int {
	t.Helper()
	got, want := fast.ScopeHits(), ref.ScopeHits()
	if !maps.Equal(got, want) {
		t.Fatalf("counters give %d scopes hit, the per-PC reference %d:\ncounters  %v\nreference %v", len(got), len(want), got, want)
	}
	if len(want) == 0 {
		t.Fatal("no scope hit: the run tests nothing")
	}
	return trace.MapPCs(fast)
}

// runProgram builds the program fill describes, loads it, lets prepare act
// on the process, and runs it to the end under both recorders.
func runProgram(t *testing.T, fill func(b *asm.Builder), prepare func(p *vm.Process, mod *bin.Module)) (fast, ref *trace.Recorder) {
	t.Helper()
	b := asm.NewBuilder("cov.exe", bin.KindExecutable)
	fill(b)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: 9})
	mod, err := p.LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if prepare != nil {
		prepare(p, mod)
	}
	fast, ref = recordBoth(p)
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if res := p.RunUntilIdle(1_000_000); res.State != vm.ProcExited {
		t.Fatalf("program ended %v: %v", res.State, p.Crash)
	}
	return fast, ref
}

// TestCoverageMatchesReference records runs with both coverage paths at
// once and requires the same per-scope hits: the paper-scale IE and
// Firefox browses, a browser over a generated DLL population, and programs
// whose PCs no predecoded table numbers.
func TestCoverageMatchesReference(t *testing.T) {
	generated := targets.SmallBrowserParams()
	generated.Corpus.GenSeed = targets.DefaultGenSeed
	generated.Corpus.GenDLLs = 24
	for _, c := range []struct {
		name   string
		build  func(targets.BrowserParams) (*targets.Browser, error)
		params targets.BrowserParams
	}{
		{"paper ie", targets.IE, targets.PaperBrowserParams()},
		{"paper firefox", targets.Firefox, targets.PaperBrowserParams()},
		{"generated browser", targets.IE, generated},
	} {
		t.Run(c.name, func(t *testing.T) {
			br, err := c.build(c.params)
			if err != nil {
				t.Fatal(err)
			}
			env, err := br.NewEnv(42)
			if err != nil {
				t.Fatal(err)
			}
			fast, ref := recordBoth(env.Proc)
			if err := env.Start(); err != nil {
				t.Fatal(err)
			}
			if err := env.Browse(); err != nil {
				t.Fatal(err)
			}
			n := sameHits(t, fast, ref)
			t.Logf("%d scopes hit over %d instructions; %d of %d PCs off the counters",
				len(ref.ScopeHits()), env.Proc.Stats.Instructions, n, trace.MapPCs(ref))
		})
	}

	// The program stores eight NOPs over a MovRI's immediate and jumps
	// to its second byte: nine PCs that start mid-instruction, run three
	// times, in a guarded range.
	t.Run("rewritten text", func(t *testing.T) {
		fast, ref := runProgram(t, func(b *asm.Builder) {
			b.Func("main").Entry("main").
				MovRI(isa.R1, 3).
				LeaCode(isa.R11, "patch").
				MovRI(isa.R3, 0x0101010101010101).
				Store(8, isa.R11, 1, isa.R3).
				Store(1, isa.R11, 9, isa.R3).
				Label("loop").
				Label("g").
				LeaCode(isa.R11, "patch").
				AddRI(isa.R11, 1).
				JmpR(isa.R11).
				Label("patch").
				MovRI(isa.R13, 0xffffffffffffffff).
				SubRI(isa.R1, 1).
				TestRR(isa.R1, isa.R1).
				Jnz("loop").
				Label("g_end").
				Halt().
				EndFunc()
			b.Guard("main", "g", "g_end", asm.CatchAll, "g_end")
		}, func(p *vm.Process, mod *bin.Module) {
			if err := p.AS.Protect(mod.Base, mem.PageSize, mem.PermRWX); err != nil {
				t.Fatal(err)
			}
		})
		if n := sameHits(t, fast, ref); n != 9 {
			t.Errorf("%d PCs off the counters, want the 9 mid-instruction ones", n)
		}
	})

	// A MovRI at offset 4092 straddles the first page boundary, so neither
	// page's table holds it; it runs five times in a guarded loop.
	t.Run("straddling instruction", func(t *testing.T) {
		fast, ref := runProgram(t, func(b *asm.Builder) {
			b.Func("main").Entry("main").
				MovRI(isa.R1, 5).
				Jmp("g")
			for range 4092 - 15 {
				b.Nop()
			}
			b.Label("g").
				MovRI(isa.R2, 0x1122334455667788).
				SubRI(isa.R1, 1).
				TestRR(isa.R1, isa.R1).
				Jnz("g").
				Label("g_end").
				Halt().
				EndFunc()
			b.Guard("main", "g", "g_end", asm.CatchAll, "g_end")
		}, nil)
		if n := sameHits(t, fast, ref); n != 1 {
			t.Errorf("%d PCs off the counters, want the straddling one", n)
		}
	})

	// A guarded loop calls two instructions on a page outside any image.
	t.Run("code outside any image", func(t *testing.T) {
		const ext = 0x7000_0000
		fast, ref := runProgram(t, func(b *asm.Builder) {
			b.Func("main").Entry("main").
				MovRI(isa.R1, 4).
				MovRI(isa.R12, ext).
				Label("g").
				CallR(isa.R12).
				SubRI(isa.R1, 1).
				TestRR(isa.R1, isa.R1).
				Jnz("g").
				Label("g_end").
				Halt().
				EndFunc()
			b.Guard("main", "g", "g_end", asm.CatchAll, "g_end")
		}, func(p *vm.Process, _ *bin.Module) {
			code, err := isa.EncodeAll([]isa.Instruction{{Op: isa.OpNop}, {Op: isa.OpRet}})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.AS.Map(ext, mem.PageSize, mem.PermRWX); err != nil {
				t.Fatal(err)
			}
			if err := p.AS.WriteForce(ext, code); err != nil {
				t.Fatal(err)
			}
		})
		if n := sameHits(t, fast, ref); n != 2 {
			t.Errorf("%d PCs off the counters, want the 2 outside any image", n)
		}
	})
}
