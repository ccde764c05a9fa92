package fuzz

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// probeOp boots a harness process for one probe of a kernel-validated
// function with an unmapped pointer: the reference path of forkProbeOp.
func probeOp(tb testing.TB) func() {
	r := smallRegistry(tb)
	d, _ := r.Lookup("Graceful1")
	f, h := New(r, 5), &harnessAPI{reg: r, fn: d}
	return func() {
		outcome, _, _, err := f.runProbe(h, InvalidPointers[1])
		if err != nil || outcome != OutcomeGraceful {
			tb.Fatalf("probe = %v, %v; want graceful", outcome, err)
		}
	}
}

// forkProbeOp runs the same probe in a fork of the fuzzer's booted
// harness: the unit of work the API funnel repeats 46,084 times.
func forkProbeOp(tb testing.TB) func() {
	r := smallRegistry(tb)
	d, _ := r.Lookup("Graceful1")
	f, h := New(r, 5), &harnessAPI{reg: r, fn: d}
	if _, err := f.snapshot(); err != nil {
		tb.Fatal(err)
	}
	return func() {
		outcome, _, _, err := f.forkProbe(h, InvalidPointers[1])
		if err != nil || outcome != OutcomeGraceful {
			tb.Fatalf("probe = %v, %v; want graceful", outcome, err)
		}
	}
}

// crashProbeOp is forkProbeOp on a function whose user-mode stub faults
// on the probe pointer, so the probe crashes the harness.
func crashProbeOp(tb testing.TB) func() {
	r := smallRegistry(tb)
	d, _ := r.Lookup("Crashy1")
	f, h := New(r, 5), &harnessAPI{reg: r, fn: d}
	if _, err := f.snapshot(); err != nil {
		tb.Fatal(err)
	}
	return func() {
		outcome, _, _, err := f.forkProbe(h, InvalidPointers[1])
		if err != nil || outcome != OutcomeCrash {
			tb.Fatalf("probe = %v, %v; want a crash", outcome, err)
		}
	}
}

// fuzzOneOp runs the whole battery on the same function, in forks of a
// harness the fuzzer has already booted.
func fuzzOneOp(tb testing.TB) func() {
	r := smallRegistry(tb)
	d, _ := r.Lookup("Graceful1")
	f := New(r, 5)
	return func() {
		res, err := f.FuzzOne(d)
		if err != nil || !res.CrashResistant {
			tb.Fatalf("FuzzOne = %+v, %v; want crash resistant", res, err)
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

func BenchmarkProbe(b *testing.B)     { benchOp(b, probeOp) }
func BenchmarkForkProbe(b *testing.B) { benchOp(b, forkProbeOp) }
func BenchmarkFuzzOne(b *testing.B)   { benchOp(b, fuzzOneOp) }

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
		{"runProbe", probeOp, 16},
		{"forkProbe", forkProbeOp, 7},
		{"forkProbe/crash", crashProbeOp, 10},
		{"FuzzOne", fuzzOneOp, 32},
	}
	for _, r := range rows {
		if got := testing.AllocsPerRun(100, r.op(t)); got > r.budget {
			t.Errorf("%s: %v allocs/op, budget %v (%s)", r.name, got, r.budget, runtime.Version())
		}
	}
}
