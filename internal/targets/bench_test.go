package targets

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// newEnvOp instantiates a small-scale IE: the process, its API registry
// layered over the browser's corpus, and every image loaded.
func newEnvOp(tb testing.TB) func() {
	br, err := IE(SmallBrowserParams())
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		if _, err := br.NewEnv(42); err != nil {
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

func BenchmarkNewEnv(b *testing.B) { benchOp(b, newEnvOp) }

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
		// Generating the corpus per environment, as NewEnv used to,
		// adds 746 at this scale (140,212 at paper scale).
		{"Browser.NewEnv/small", newEnvOp, 52},
	}
	for _, r := range rows {
		if got := testing.AllocsPerRun(100, r.op(t)); got > r.budget {
			t.Errorf("%s: %v allocs/op, budget %v (%s)", r.name, got, r.budget, runtime.Version())
		}
	}
}
