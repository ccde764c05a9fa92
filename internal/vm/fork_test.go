package vm

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/faultinject"
	"crashresist/internal/isa"
	"crashresist/internal/mem"
)

// forkProgram builds a two-thread Windows process: main and a worker each
// count their own cell up while every round takes an access violation that
// a vectored handler resolves and counts. main halts with the sum of the
// three cells once the worker's cell is full.
func forkProgram(t *testing.T) *Process {
	t.Helper()
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			LeaData(isa.R3, "cells").
			MovRI(isa.R1, 40).
			Label("main_loop").
			Load(8, isa.R4, isa.R3, 0).
			AddRI(isa.R4, 1).
			Store(8, isa.R3, 0, isa.R4).
			MovRI(isa.R5, 0xbad0000).
			Load(8, isa.R6, isa.R5, 0). // faults; the VEH skips it
			SubRI(isa.R1, 1).
			TestRR(isa.R1, isa.R1).
			Jnz("main_loop").
			Label("wait").
			Yield().
			Load(8, isa.R4, isa.R3, 8).
			CmpRI(isa.R4, 25).
			Jnz("wait").
			Load(8, isa.R0, isa.R3, 0).
			Load(8, isa.R4, isa.R3, 8).
			AddRR(isa.R0, isa.R4).
			Load(8, isa.R4, isa.R3, 16).
			AddRR(isa.R0, isa.R4).
			Halt().
			EndFunc()
		b.Func("worker").
			LeaData(isa.R3, "cells").
			Label("worker_loop").
			Load(8, isa.R4, isa.R3, 8).
			AddRI(isa.R4, 1).
			Store(8, isa.R3, 8, isa.R4).
			MovRI(isa.R5, 0xbad1000).
			Load(8, isa.R6, isa.R5, 0).
			SubRI(isa.R1, 1).
			TestRR(isa.R1, isa.R1).
			Jnz("worker_loop").
			Ret().
			EndFunc()
		b.Func("veh").
			LeaData(isa.R5, "cells").
			Load(8, isa.R4, isa.R5, 16).
			AddRI(isa.R4, 1).
			Store(8, isa.R5, 16, isa.R4).
			MovRI(isa.R0, 0).
			Not(isa.R0). // -1: continue execution
			Ret().
			EndFunc()
		b.BSS("cells", 24)
		b.Export("cells", "cells")
		b.Export("worker", "worker")
		b.Export("veh", "veh")
	})
	mod := p.Modules()[0]
	veh, _ := mod.Image.Export("veh")
	worker, _ := mod.Image.Export("worker")
	p.AddVEHandler(mod.VA(veh))
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StartThread("worker", mod.VA(worker), 25); err != nil {
		t.Fatal(err)
	}
	return p
}

// sameRun fails t unless got ended exactly as want: state, exit code,
// clock, Stats, every thread's registers and every mapped byte.
func sameRun(t *testing.T, name string, got, want *Process) {
	t.Helper()
	if got.State != want.State || got.ExitCode != want.ExitCode || got.Clock != want.Clock || got.Stats != want.Stats {
		t.Errorf("%s: state %v exit %d clock %d stats %+v; want %v %d %d %+v", name,
			got.State, got.ExitCode, got.Clock, got.Stats, want.State, want.ExitCode, want.Clock, want.Stats)
	}
	gt, wt := got.Threads(), want.Threads()
	if len(gt) != len(wt) {
		t.Fatalf("%s: %d threads, want %d", name, len(gt), len(wt))
	}
	for i := range gt {
		if gt[i].Regs != wt[i].Regs || gt[i].PC != wt[i].PC || gt[i].State != wt[i].State {
			t.Errorf("%s: thread %d ended at pc %#x regs %#x, want pc %#x regs %#x", name, i, gt[i].PC, gt[i].Regs, wt[i].PC, wt[i].Regs)
		}
	}
	gr, wr := got.AS.Regions(), want.AS.Regions()
	if len(gr) != len(wr) {
		t.Fatalf("%s: regions %v, want %v", name, gr, wr)
	}
	for i, r := range wr {
		if gr[i] != r {
			t.Fatalf("%s: region %v, want %v", name, gr[i], r)
		}
		if r.Perm&mem.PermRead == 0 {
			continue
		}
		g, err1 := got.AS.Read(r.Addr, r.Length)
		w, err2 := want.AS.Read(r.Addr, r.Length)
		if err1 != nil || err2 != nil || !bytes.Equal(g, w) {
			t.Errorf("%s: bytes of %v differ (%v, %v)", name, r, err1, err2)
		}
	}
}

// TestForkContinuesExactly runs the two-thread program partway, forks it
// twice, and finishes the source and one fork: each must end exactly as an
// unforked run. Afterwards a write to one copy's memory, signal handlers
// or loaded modules must not show in any other copy.
func TestForkContinuesExactly(t *testing.T) {
	want := forkProgram(t)
	want.RunUntilIdle(1_000_000)
	if want.State != ProcExited || want.ExitCode != 40+25+65 {
		t.Fatalf("unforked run: state %v exit %d crash %v; want exit 130", want.State, want.ExitCode, want.Crash)
	}
	for _, at := range []uint64{1, 97, 250, 613} {
		src := forkProgram(t)
		src.Run(at)
		fork, err := src.Fork()
		if err != nil {
			t.Fatal(err)
		}
		sibling, err := src.Fork()
		if err != nil {
			t.Fatal(err)
		}
		fork.RunUntilIdle(1_000_000)
		src.RunUntilIdle(1_000_000)
		sameRun(t, "fork", fork, want)
		sameRun(t, "source", src, want)

		cells, _ := src.Modules()[0].Image.Export("cells")
		addr := src.Modules()[0].VA(cells)
		if err := fork.AS.WriteUint(addr, 8, 0xf00d); err != nil {
			t.Fatal(err)
		}
		if v, _ := src.AS.ReadUint(addr, 8); v != 40 {
			t.Errorf("fork at %d: a write to the fork shows in the source: %#x", at, v)
		}

		// The copies share their signal-handler and module maps until
		// one writes them. Each process's first write is to a
		// different map, so each write path must copy on its own.
		if _, err := fork.LoadImage(forkLibrary(t, "fork.dll")); err != nil {
			t.Fatal(err)
		}
		src.SetSignalHandler(SigIll, 0x2222)
		if _, err := src.LoadImage(forkLibrary(t, "source.dll")); err != nil {
			t.Fatal(err)
		}
		fork.SetSignalHandler(SigSegv, 0x1111)
		for _, c := range []struct {
			name string
			p    *Process
			sig  int
			dll  string
		}{{"fork", fork, SigSegv, "fork.dll"}, {"source", src, SigIll, "source.dll"}, {"sibling", sibling, 0, ""}} {
			for sig := range c.p.SignalHandlers {
				if sig != c.sig {
					t.Errorf("fork at %d: the %s has a handler for signal %d", at, c.name, sig)
				}
			}
			if _, ok := c.p.SignalHandlers[c.sig]; c.sig != 0 && !ok {
				t.Errorf("fork at %d: the %s lost its handler for signal %d", at, c.name, c.sig)
			}
			for _, dll := range []string{"fork.dll", "source.dll"} {
				if _, ok := c.p.Module(dll); ok != (dll == c.dll) {
					t.Errorf("fork at %d: the %s has module %s: %v", at, c.name, dll, ok)
				}
			}
		}
	}
}

// forkLibrary builds a one-function library image.
func forkLibrary(t *testing.T, name string) *bin.Image {
	t.Helper()
	b := asm.NewBuilder(name, bin.KindLibrary)
	b.Func("f").Ret().EndFunc()
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestForkRefuses checks that Fork refuses a process with a syscall
// handler and one with a thread blocked on a continuation, and accepts a
// thread blocked on a timer alone.
func TestForkRefuses(t *testing.T) {
	p := forkProgram(t)
	p.Syscalls = nopSyscalls{}
	if _, err := p.Fork(); err == nil {
		t.Error("Fork with a syscall handler attached succeeded")
	}
	p.Syscalls = nil
	main, _ := p.Thread(0)
	main.Block(p.Clock+10, nil)
	if _, err := p.Fork(); err != nil {
		t.Errorf("Fork with a thread blocked on a timer: %v", err)
	}
	main.Block(0, func(bool) {})
	if _, err := p.Fork(); err == nil {
		t.Error("Fork with a thread blocked on a continuation succeeded")
	}
}

type nopSyscalls struct{}

func (nopSyscalls) Syscall(*Process, *Thread) {}

// TestForkAllocatorContinuesStream forks processes whose allocators have
// taken fewer and more draws than the seed memo holds: each fork's next
// allocations must be those of an allocator that was never forked.
func TestForkAllocatorContinuesStream(t *testing.T) {
	const total = 80
	alloc := func(p *Process, n int) []uint64 {
		var out []uint64
		for range n {
			base, err := p.Alloc.Alloc(mem.PageSize, mem.PermRW)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, base)
		}
		return out
	}
	want := alloc(NewProcess(Config{Platform: PlatformWindows, Seed: 77}), total)
	for _, at := range []int{0, 60, 64, 70} {
		p := NewProcess(Config{Platform: PlatformWindows, Seed: 77})
		got := alloc(p, at)
		fork, err := p.Fork()
		if err != nil {
			t.Fatal(err)
		}
		forked := append(append([]uint64(nil), got...), alloc(fork, total-at)...)
		got = append(got, alloc(p, total-at)...)
		for i := range want {
			if got[i] != want[i] || forked[i] != want[i] {
				t.Fatalf("fork after %d draws: allocation %d at %#x (source %#x), want %#x", at, i, forked[i], got[i], want[i])
			}
		}
	}
}

// stackProcess boots a process whose main thread, from the seed in R1,
// pushes, pops and stores on its stack for 600 rounds, reaching a second
// stack page, and halts with a sum of what it popped. It has run nothing.
func stackProcess(t *testing.T, seed uint64) *Process {
	t.Helper()
	p := buildProc(t, PlatformWindows, func(b *asm.Builder) {
		b.Func("main").Entry("main").
			MovRI(isa.R2, 600).
			Label("loop").
			Push(isa.R1).
			MulRI(isa.R1, 3).
			AddRI(isa.R1, 7).
			Push(isa.R1).
			Pop(isa.R3).
			Store(8, isa.SP, 8, isa.R3).
			AddRR(isa.R0, isa.R3).
			SubRI(isa.R2, 1).
			TestRR(isa.R2, isa.R2).
			Jnz("loop").
			Halt().
			EndFunc()
	})
	main, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	main.SetReg(isa.R1, seed)
	return p
}

// stackBytes returns the bytes of the main thread's stack.
func stackBytes(t *testing.T, p *Process) []byte {
	t.Helper()
	main, _ := p.Thread(0)
	b, err := p.AS.Read(main.StackBase, main.StackSize)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestForkSharedTableConcurrently forks one booted, never-run snapshot
// from eight goroutines at once, as the fuzz stage's probes do, and runs
// each fork with a seed of its own. Every fork shares the snapshot's page
// table until its first stack write, so each run must end with the
// registers, Stats and stack bytes of an unforked run of its seed, and the
// snapshot's memory must not change; under -race, a write that reached the
// shared table or shared bytes is a race.
func TestForkSharedTableConcurrently(t *testing.T) {
	const seeds = 16
	type result struct {
		regs  [isa.NumRegisters]uint64
		stats Stats
		stack []byte
	}
	var want [seeds]result
	for s := range want {
		p := stackProcess(t, uint64(s))
		p.RunUntilIdle(100_000)
		main, _ := p.Thread(0)
		want[s] = result{main.Regs, p.Stats, stackBytes(t, p)}
	}
	snap, err := stackProcess(t, 0).Fork()
	if err != nil {
		t.Fatal(err)
	}
	before := stackBytes(t, snap)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 40 {
				s := (g + i) % seeds
				p, err := snap.Fork()
				if err != nil {
					t.Error(err)
					return
				}
				main, _ := p.Thread(0)
				main.SetReg(isa.R1, uint64(s))
				p.RunUntilIdle(100_000)
				main, _ = p.Thread(0)
				got := result{main.Regs, p.Stats, stackBytes(t, p)}
				if got.regs != want[s].regs || got.stats != want[s].stats || !bytes.Equal(got.stack, want[s].stack) {
					t.Errorf("goroutine %d fork %d (seed %d): regs %#x stats %+v, want %#x %+v (stacks equal: %v)",
						g, i, s, got.regs, got.stats, want[s].regs, want[s].stats, bytes.Equal(got.stack, want[s].stack))
					return
				}
			}
		}()
	}
	wg.Wait()
	if !bytes.Equal(stackBytes(t, snap), before) {
		t.Error("the forks' runs changed the snapshot's stack")
	}
	if snap.Stats != (Stats{}) || snap.Clock != 0 {
		t.Errorf("the snapshot ran: clock %d stats %+v", snap.Clock, snap.Stats)
	}
}

// forkRule says what a field of a fork holds, next to the same field of the
// value it was forked from. It and checkFork repeat internal/mem's census
// helpers, since test files cannot share code across packages.
type forkRule string

const (
	// same: the source's value; for a pointer, map, slice or interface,
	// the same referent.
	same forkRule = "same"
	// forked: a value of the fork's own, not the source's, that forking
	// the source's made.
	forked forkRule = "forked"
	// reset: the zero value.
	reset forkRule = "reset"
	// copied: a pointer or slice whose contents equal the source's, in
	// storage of the fork's own.
	copied forkRule = "copied"
)

// checkFork fails t unless every field of *src's struct type has a rule in
// rules, every rule names a field, every field of *src but those in zeroOK
// is non-zero, so that each rule can tell its cases apart, and every field
// of *fork follows its rule. A field without a rule fails, so that a fork
// that reuses a spent value cannot carry one fork's state into the next.
func checkFork(t *testing.T, src, fork any, rules map[string]forkRule, zeroOK ...string) {
	t.Helper()
	s, f := reflect.ValueOf(src).Elem(), reflect.ValueOf(fork).Elem()
	typ := s.Type()
	for name := range rules {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("%s has no field %s, which has a fork rule", typ, name)
		}
	}
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		sv, fv := s.Field(i), f.Field(i)
		rule, ok := rules[name]
		switch {
		case !ok:
			t.Errorf("%s.%s has no fork rule", typ, name)
		case sv.IsZero() && !slices.Contains(zeroOK, name):
			t.Errorf("%s.%s is zero in the source, so its rule cannot be checked", typ, name)
		case rule == same && !identical(sv, fv),
			rule == forked && (fv.IsZero() || identical(sv, fv)),
			rule == reset && !fv.IsZero(),
			rule == copied && !copyOf(sv, fv):
			t.Errorf("%s.%s breaks its fork rule %q", typ, name, rule)
		}
	}
}

// identical reports whether a and b hold the same value: equal scalars,
// arrays and structs, and the same referent for pointers, maps, slices and
// interfaces.
func identical(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Map, reflect.Func:
		return a.UnsafePointer() == b.UnsafePointer()
	case reflect.Slice:
		return a.UnsafePointer() == b.UnsafePointer() && a.Len() == b.Len()
	default:
		return a.Equal(b)
	}
}

// copyOf reports whether b, a pointer or slice, holds what a holds in
// storage of its own.
func copyOf(a, b reflect.Value) bool {
	if a.IsNil() || b.IsNil() || a.UnsafePointer() == b.UnsafePointer() {
		return false
	}
	if a.Kind() == reflect.Pointer {
		return a.Elem().Equal(b.Elem())
	}
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Len() {
		if !a.Index(i).Equal(b.Index(i)) {
			return false
		}
	}
	return true
}

// censusHooks stands in for a tracer and a data flow, which Fork drops.
// Nothing calls it.
type censusHooks struct {
	Tracer
	DataFlow
}

// TestForkCensus forks a process whose fields, and whose threads' fields,
// are all non-zero and checks every field of the fork and of its threads
// against its rule. The source has a loaded image, two threads with frames
// and a saved signal context, a vectored handler, a signal handler and a
// crash record; Fork refuses a syscall handler and a thread's
// continuation, so those alone are nil.
func TestForkCensus(t *testing.T) {
	p := forkProgram(t)
	p.Run(97)
	p.Policy = Policy{MappedOnlyAV: true}
	p.API = faultAPI{}
	p.Tracer, p.Flow = &censusHooks{}, &censusHooks{}
	p.FaultPlan = faultinject.New(1)
	p.SetSignalHandler(SigSegv, 0x1234)
	p.ExitCode = 3
	p.Crash = &CrashInfo{TID: 1, Exc: Exception{Code: ExcAccessViolation, Addr: 0xbad1000}, Clock: p.Clock}
	p.referenceFetch = true
	p.rrIndex = 1
	for _, th := range p.threads {
		th.Block(p.Clock+10, nil)
		th.flagZ, th.flagL, th.flagB = true, true, true
		th.filterDepth = 1
		th.savedSigCtx = append(th.savedSigCtx, sigCtx{regs: th.Regs, pc: th.PC, resume: th.PC, frames: len(th.frames)})
	}
	if _, err := p.Fork(); err != nil { // shares the maps
		t.Fatal(err)
	}

	c, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	checkFork(t, p, c, map[string]forkRule{
		"AS":             forked,
		"Alloc":          forked,
		"Platform":       same,
		"Policy":         same,
		"Clock":          same,
		"Syscalls":       same,
		"API":            same,
		"Tracer":         reset,
		"Flow":           reset,
		"FaultPlan":      same,
		"SignalHandlers": same,
		"Stats":          same,
		"State":          same,
		"ExitCode":       same,
		"Crash":          copied,
		"referenceFetch": same,
		"sharedMaps":     same,
		"modules":        copied,
		"modsByName":     same,
		"threads":        forked,
		"stackSize":      same,
		"rrIndex":        same,
		"veh":            copied,
	}, "Syscalls")
	if len(c.threads) != len(p.threads) {
		t.Fatalf("the fork has %d threads, want %d", len(c.threads), len(p.threads))
	}
	threadRules := map[string]forkRule{
		"ID":          same,
		"Name":        same,
		"Regs":        same,
		"PC":          same,
		"flagZ":       same,
		"flagL":       same,
		"flagB":       same,
		"State":       same,
		"WakeAt":      same,
		"resume":      same,
		"StackBase":   same,
		"StackSize":   same,
		"frames":      copied,
		"savedSigCtx": copied,
		"filterDepth": same,
		"isMain":      same,
		"proc":        forked,
	}
	// Thread 0 has ID 0 and only thread 0 is the main thread, so each of
	// those fields is non-zero in one of the two.
	for i, zero := range []string{"ID", "isMain"} {
		checkFork(t, p.threads[i], c.threads[i], threadRules, "resume", zero)
		if c.threads[i].proc != c {
			t.Errorf("the fork's thread %d belongs to another process", i)
		}
	}
}
