package vm

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/isa"
)

// startBench builds and starts a Windows process from the builder.
func startBench(tb testing.TB, bb *asm.Builder) *Process {
	tb.Helper()
	img, err := bb.Build()
	if err != nil {
		tb.Fatal(err)
	}
	p := NewProcess(Config{Platform: PlatformWindows, Seed: 1})
	if _, err := p.LoadImage(img); err != nil {
		tb.Fatal(err)
	}
	if _, err := p.Start(); err != nil {
		tb.Fatal(err)
	}
	return p
}

// execLoopOp retires one instruction of a tight arithmetic+memory loop:
// raw interpreter throughput.
func execLoopOp(tb testing.TB) func() {
	bb := asm.NewBuilder("bench.exe", bin.KindExecutable)
	bb.Func("main").Entry("main").
		LeaData(isa.R2, "cell").
		Label("loop").
		Load(8, isa.R3, isa.R2, 0).
		AddRI(isa.R3, 1).
		Store(8, isa.R2, 0, isa.R3).
		Jmp("loop").
		EndFunc()
	bb.BSS("cell", 8)
	p := startBench(tb, bb)
	return func() {
		if res := p.Run(1); res.Ticks != 1 {
			tb.Fatalf("loop ran %d ticks, want 1", res.Ticks)
		}
	}
}

// sehRoundTripOp runs one guarded fault + filter evaluation + unwind.
func sehRoundTripOp(tb testing.TB) func() {
	bb := asm.NewBuilder("bench.exe", bin.KindExecutable)
	bb.Func("main").Entry("main").
		MovRI(isa.R1, 0xbad0000).
		Label("loop").
		Label("try").
		Load(8, isa.R0, isa.R1, 0).
		Label("try_end").
		Halt().
		Label("handler").
		Jmp("loop").
		EndFunc()
	bb.Func("filter").
		MovRI(isa.R3, 0xC0000005).
		CmpRR(isa.R1, isa.R3).
		Jz("yes").
		MovRI(isa.R0, 0).
		Ret().
		Label("yes").
		MovRI(isa.R0, 1).
		Ret().
		EndFunc()
	bb.Guard("main", "try", "try_end", "filter", "handler")
	p := startBench(tb, bb)
	return func() {
		want := p.Stats.FaultsHandled + 1
		for p.Stats.FaultsHandled < want {
			p.Run(1)
			if !p.Alive() {
				tb.Fatal("process died")
			}
		}
	}
}

// processBootOp is process creation + image load + start.
func processBootOp(tb testing.TB) func() {
	bb := asm.NewBuilder("bench.exe", bin.KindExecutable)
	bb.Func("main").Entry("main").Halt().EndFunc()
	img, err := bb.Build()
	if err != nil {
		tb.Fatal(err)
	}
	var seed int64
	return func() {
		seed++
		p := NewProcess(Config{Platform: PlatformWindows, Seed: seed})
		if _, err := p.LoadImage(img); err != nil {
			tb.Fatal(err)
		}
		if _, err := p.Start(); err != nil {
			tb.Fatal(err)
		}
		p.RunUntilIdle(1000)
	}
}

// forkOp forks a booted two-thread process partway through its run: the
// copy of its page headers, threads, frames and handlers, and no page
// bytes.
func forkOp(tb testing.TB) func() {
	bb := asm.NewBuilder("bench.exe", bin.KindExecutable)
	bb.Func("main").Entry("main").
		LeaData(isa.R2, "cell").
		Label("loop").
		Load(8, isa.R3, isa.R2, 0).
		AddRI(isa.R3, 1).
		Store(8, isa.R2, 0, isa.R3).
		Jmp("loop").
		EndFunc()
	bb.BSS("cell", 8)
	p := startBench(tb, bb)
	if _, err := p.StartThread("worker", p.Modules()[0].VA(0)); err != nil {
		tb.Fatal(err)
	}
	p.Run(100)
	return func() {
		if _, err := p.Fork(); err != nil {
			tb.Fatal(err)
		}
	}
}

func benchOp(b *testing.B, newOp func(testing.TB) func()) {
	op := newOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkExecLoop(b *testing.B)     { benchOp(b, execLoopOp) }
func BenchmarkSEHRoundTrip(b *testing.B) { benchOp(b, sehRoundTripOp) }
func BenchmarkProcessBoot(b *testing.B)  { benchOp(b, processBootOp) }
func BenchmarkFork(b *testing.B)         { benchOp(b, forkOp) }

// TestAllocs fails when an operation allocates more per call than its
// budget. Budgets are measured counts; a change that lowers a count lowers
// its budget in the same change.
func TestAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("counts are not exact under the race detector, which drops sync.Pool items at random")
	}
	rows := []struct {
		name   string
		op     func(testing.TB) func()
		budget float64
	}{
		{"ExecLoop", execLoopOp, 0},
		{"SEHRoundTrip", sehRoundTripOp, 6},
		// Each boot takes a new seed: 22 in a fresh test binary, while
		// the first seeds fill mem's seed memo, and 21 once it is full.
		{"ProcessBoot", processBootOp, 22},
		{"Fork", forkOp, 16},
	}
	for _, r := range rows {
		if got := testing.AllocsPerRun(100, r.op(t)); got > r.budget {
			t.Errorf("%s: %v allocs/op, budget %v (%s)", r.name, got, r.budget, runtime.Version())
		}
	}
}
