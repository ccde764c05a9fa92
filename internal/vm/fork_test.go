package vm

import (
	"bytes"
	"testing"

	"crashresist/internal/asm"
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
		if gt[i].Regs != wt[i].Regs || gt[i].PC != wt[i].PC || gt[i].State != wt[i].State || gt[i].Instructions != wt[i].Instructions {
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

// TestForkContinuesExactly runs the two-thread program partway, forks it,
// and finishes both copies: each must end exactly as an unforked run, and
// a write to one copy afterwards must not show in the other.
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
	}
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
