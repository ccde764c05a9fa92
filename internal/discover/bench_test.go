package discover

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"crashresist/internal/cas"
)

// uncachedUnitOp sends one unit through cachedUnit on a run without a
// cache, as every job of an uncached run does.
func uncachedUnitOp(tb testing.TB) func() {
	r := &pipelineRun{}
	return func() {
		ent, err := cachedUnit(r, casFamilyValidate, "validate", "read/1",
			func() (cas.Key, bool) { return cas.Key{}, true },
			func() (validateEntry, bool, error) {
				return validateEntry{Finding: Finding{Status: StatusUsable}}, true, nil
			})
		if err != nil || ent.Finding.Status != StatusUsable {
			tb.Fatalf("cachedUnit = %+v, %v", ent, err)
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

func BenchmarkUncachedUnit(b *testing.B) { benchOp(b, uncachedUnitOp) }

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
		// A decode target declared outside the cached branch escapes to
		// the heap on every job, cache or not: 1 per unit, 11,533 per
		// paper-scale funnel.
		{"cachedUnit/uncached", uncachedUnitOp, 0},
	}
	for _, r := range rows {
		if got := testing.AllocsPerRun(100, r.op(t)); got > r.budget {
			t.Errorf("%s: %v allocs/op, budget %v (%s)", r.name, got, r.budget, runtime.Version())
		}
	}
}
