package sym

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/isa"
	"crashresist/internal/vm"
)

// analyzeFilterOp is one filter classification — the unit cost behind the
// 5,751-filter corpus sweep.
func analyzeFilterOp(tb testing.TB) func() {
	bb := asm.NewBuilder("filters.dll", bin.KindLibrary)
	bb.Func("f").
		MovRI(isa.R3, 0xC0000000).
		CmpRR(isa.R1, isa.R3).
		Jb("no").
		MovRI(isa.R3, 0xD0000000).
		CmpRR(isa.R1, isa.R3).
		Jae("no").
		MovRI(isa.R0, 1).
		Ret().
		Label("no").
		MovRI(isa.R0, 0).
		Ret().
		EndFunc()
	bb.Export("f", "f")
	img, err := bb.Build()
	if err != nil {
		tb.Fatal(err)
	}
	p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: 1})
	mod, err := p.LoadImage(img)
	if err != nil {
		tb.Fatal(err)
	}
	va := mod.VA(img.Exports["f"])
	exec := NewExecutor(p)
	return func() {
		if rep := exec.AnalyzeFilter(va); rep.Verdict != VerdictAccepts {
			tb.Fatal(rep.Verdict)
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

func BenchmarkAnalyzeFilter(b *testing.B) { benchOp(b, analyzeFilterOp) }

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
		{"AnalyzeFilter", analyzeFilterOp, 203},
	}
	for _, r := range rows {
		if got := testing.AllocsPerRun(100, r.op(t)); got > r.budget {
			t.Errorf("%s: %v allocs/op, budget %v (%s)", r.name, got, r.budget, runtime.Version())
		}
	}
}
