package solver

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// solveEqualityOp is the dominant filter shape: code == CONST.
func solveEqualityOp(tb testing.TB) func() {
	cs := []*Expr{Bin(OpEq, Sym("code"), Const(0xC0000005))}
	return func() {
		if _, res := Solve(cs); res != Sat {
			tb.Fatal(res)
		}
	}
}

// solveMaskRangeOp exercises the masked-equality + interval family.
func solveMaskRangeOp(tb testing.TB) func() {
	code := Sym("code")
	cs := []*Expr{
		Bin(OpEq, Bin(OpAnd, code, Const(0xF0000000)), Const(0xC0000000)),
		Bin(OpUle, Const(0xC0000001), code),
		Bin(OpNe, code, Const(0xC0000094)),
	}
	return func() {
		if _, res := Solve(cs); res != Sat {
			tb.Fatal(res)
		}
	}
}

// evalOp measures raw expression evaluation.
func evalOp(tb testing.TB) func() {
	e := Bin(OpEq, Bin(OpAnd, Bin(OpAdd, Sym("a"), Sym("b")), Const(0xFF)), Const(0x42))
	m := map[string]uint64{"a": 0x40, "b": 0x2}
	return func() {
		if e.Eval(m) != 1 {
			tb.Fatal("wrong eval")
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

func BenchmarkSolveEquality(b *testing.B)  { benchOp(b, solveEqualityOp) }
func BenchmarkSolveMaskRange(b *testing.B) { benchOp(b, solveMaskRangeOp) }
func BenchmarkEval(b *testing.B)           { benchOp(b, evalOp) }

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
		{"SolveEquality", solveEqualityOp, 13},
		{"SolveMaskRange", solveMaskRangeOp, 17},
		{"Eval", evalOp, 0},
	}
	for _, r := range rows {
		if got := testing.AllocsPerRun(100, r.op(t)); got > r.budget {
			t.Errorf("%s: %v allocs/op, budget %v (%s)", r.name, got, r.budget, runtime.Version())
		}
	}
}
