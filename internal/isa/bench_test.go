package isa

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

func benchProgram() []Instruction {
	return []Instruction{
		{Op: OpMovRI, A: R1, Imm: 0xdeadbeef},
		{Op: OpLoad8, A: R2, B: R1, Disp: 16},
		{Op: OpAddRR, A: R2, B: R1},
		{Op: OpCmpRI, A: R2, Disp: 100},
		{Op: OpJnz, Disp: -24},
		{Op: OpCall, Disp: 64},
		{Op: OpRet},
	}
}

func encodeOp(tb testing.TB) func() {
	prog := benchProgram()
	buf := make([]byte, 0, 64)
	return func() {
		buf = buf[:0]
		for _, ins := range prog {
			var err error
			if buf, err = Encode(buf, ins); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

func decodeOp(tb testing.TB) func() {
	enc, err := EncodeAll(benchProgram())
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		for off := 0; off < len(enc); {
			_, n, err := Decode(enc[off:])
			if err != nil {
				tb.Fatal(err)
			}
			off += n
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

func BenchmarkEncode(b *testing.B) { benchOp(b, encodeOp) }
func BenchmarkDecode(b *testing.B) { benchOp(b, decodeOp) }

func BenchmarkDisassemble(b *testing.B) {
	enc, err := EncodeAll(benchProgram())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if Disassemble(enc) == "" {
			b.Fatal("empty disassembly")
		}
	}
}

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
		{"Encode", encodeOp, 0},
		{"Decode", decodeOp, 0},
	}
	for _, r := range rows {
		if got := testing.AllocsPerRun(100, r.op(t)); got > r.budget {
			t.Errorf("%s: %v allocs/op, budget %v (%s)", r.name, got, r.budget, runtime.Version())
		}
	}
}
