package trace

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

// Where coverageOp's PC lies.
const (
	pcCovered   = iota // in a guarded range
	pcUncovered        // in the image's text, past every guarded range
	pcNoTable          // outside every image, so outside every table
)

// coverageOp records one more execution of a PC the coverage recorder has
// already seen: the per-instruction cost of a covered browse. where picks
// the PC.
func coverageOp(where int) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		b := asm.NewBuilder("app.exe", bin.KindExecutable)
		b.Func("main").Entry("main").
			Label("g0").
			Nop().
			Label("g0_end").
			Nop().
			Halt().
			EndFunc()
		b.Guard("main", "g0", "g0_end", asm.CatchAll, "g0_end")
		img, err := b.Build()
		if err != nil {
			tb.Fatal(err)
		}
		p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: 4})
		mod, err := p.LoadImage(img)
		if err != nil {
			tb.Fatal(err)
		}
		rec := NewRecorder()
		rec.EnableCoverage()
		rec.Attach(p)
		t, err := p.Start()
		if err != nil {
			tb.Fatal(err)
		}
		pc, hit := mod.VA(img.Entry), 1
		switch where {
		case pcUncovered:
			pc, hit = pc+1, 0 // the second nop
		case pcNoTable:
			pc, hit = 0x7000_0000, 0
		}
		ins := isa.Instruction{Op: isa.OpNop}
		rec.OnInstruction(t, pc, ins)
		if got := len(rec.HitScopes()); got != hit {
			tb.Fatalf("%d scopes hit after the first execution, want %d", got, hit)
		}
		return func() { rec.OnInstruction(t, pc, ins) }
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

func BenchmarkCoverage(b *testing.B) { benchOp(b, coverageOp(pcCovered)) }

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
		{"OnInstruction/covered-seen", coverageOp(pcCovered), 0},
		{"OnInstruction/uncovered-seen", coverageOp(pcUncovered), 0},
		{"OnInstruction/no-table-seen", coverageOp(pcNoTable), 0},
	}
	for _, r := range rows {
		if got := testing.AllocsPerRun(100, r.op(t)); got > r.budget {
			t.Errorf("%s: %v allocs/op, budget %v (%s)", r.name, got, r.budget, runtime.Version())
		}
	}
}
