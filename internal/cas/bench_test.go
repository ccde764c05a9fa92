package cas

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// benchCache holds one small entry, the size of a cached per-syscall
// observation.
func benchCache(tb testing.TB) (*Cache, Key) {
	tb.Helper()
	c, err := Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	key := testKey("bench")
	if !c.Put("fam", key, payload{Name: "mmap", Count: 7}).Stored {
		tb.Fatal("Put did not store")
	}
	return c, key
}

func getOp(tb testing.TB) func() {
	c, key := benchCache(tb)
	return func() {
		var out payload
		if !c.Get("fam", key, &out).Hit {
			tb.Fatal("Get missed")
		}
	}
}

func putOp(tb testing.TB) func() {
	c, key := benchCache(tb)
	return func() {
		if !c.Put("fam", key, payload{Name: "mmap", Count: 7}).Stored {
			tb.Fatal("Put did not store")
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

func BenchmarkGet(b *testing.B) { benchOp(b, getOp) }
func BenchmarkPut(b *testing.B) { benchOp(b, putOp) }

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
		{"Get", getOp, 15},
		{"Put", putOp, 19},
	}
	for _, r := range rows {
		if got := testing.AllocsPerRun(100, r.op(t)); got > r.budget {
			t.Errorf("%s: %v allocs/op, budget %v (%s)", r.name, got, r.budget, runtime.Version())
		}
	}
}
