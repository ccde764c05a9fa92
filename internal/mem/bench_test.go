package mem

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

const (
	benchPage     = 0x10000
	benchUnmapped = 0xdead0000
)

// benchSpace maps one RWX page at benchPage; benchUnmapped stays unmapped.
func benchSpace(tb testing.TB) *AddressSpace {
	tb.Helper()
	as := NewAddressSpace()
	if err := as.Map(benchPage, PageSize, PermRWX); err != nil {
		tb.Fatal(err)
	}
	return as
}

func readUintOp(tb testing.TB) func() {
	as := benchSpace(tb)
	return func() {
		if _, err := as.ReadUint(benchPage+8, 8); err != nil {
			tb.Fatal(err)
		}
	}
}

func writeUintOp(tb testing.TB) func() {
	as := benchSpace(tb)
	return func() {
		if err := as.WriteUint(benchPage+8, 8, 0xdeadbeef); err != nil {
			tb.Fatal(err)
		}
	}
}

func fetchExecOp(tb testing.TB) func() {
	as := benchSpace(tb)
	buf := make([]byte, 0, 16)
	return func() {
		if _, err := as.FetchExec(benchPage+8, 16, buf); err != nil {
			tb.Fatal(err)
		}
	}
}

// readUintFaultOp is the access an -EFAULT probe makes: the returned *Fault
// is its one allocation.
func readUintFaultOp(tb testing.TB) func() {
	as := benchSpace(tb)
	return func() {
		if _, err := as.ReadUint(benchUnmapped, 8); err == nil {
			tb.Fatal("read of an unmapped page succeeded")
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

func BenchmarkReadUint(b *testing.B)      { benchOp(b, readUintOp) }
func BenchmarkWriteUint(b *testing.B)     { benchOp(b, writeUintOp) }
func BenchmarkFetchExec(b *testing.B)     { benchOp(b, fetchExecOp) }
func BenchmarkReadUintFault(b *testing.B) { benchOp(b, readUintFaultOp) }

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
		{"ReadUint", readUintOp, 0},
		{"WriteUint", writeUintOp, 0},
		{"FetchExec", fetchExecOp, 0},
		{"ReadUint/fault", readUintFaultOp, 1},
	}
	for _, r := range rows {
		if got := testing.AllocsPerRun(100, r.op(t)); got > r.budget {
			t.Errorf("%s: %v allocs/op, budget %v (%s)", r.name, got, r.budget, runtime.Version())
		}
	}
}
