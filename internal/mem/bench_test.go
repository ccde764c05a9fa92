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

// benchSpace maps one RWX page at benchPage and writes its first bytes;
// benchUnmapped stays unmapped.
func benchSpace(tb testing.TB) *AddressSpace {
	tb.Helper()
	as := untouchedSpace(tb)
	if err := as.Write(benchPage, []byte("written, so the page has bytes")); err != nil {
		tb.Fatal(err)
	}
	return as
}

// untouchedSpace maps one RWX page at benchPage and never writes it.
func untouchedSpace(tb testing.TB) *AddressSpace {
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

func readUintUntouchedOp(tb testing.TB) func() {
	as := untouchedSpace(tb)
	return func() {
		if v, err := as.ReadUint(benchPage+8, 8); err != nil || v != 0 {
			tb.Fatalf("ReadUint of an untouched page = %#x, %v; want 0", v, err)
		}
	}
}

func fetchExecUntouchedOp(tb testing.TB) func() {
	as := untouchedSpace(tb)
	buf := make([]byte, 0, 16)
	return func() {
		if _, err := as.FetchExec(benchPage+8, 16, buf); err != nil {
			tb.Fatal(err)
		}
	}
}

// mapStackOp maps and unmaps a 16-page thread stack (vm.DefaultStackSize).
func mapStackOp(tb testing.TB) func() {
	as := NewAddressSpace()
	const stack = 16 * PageSize
	return func() {
		if err := as.Map(benchPage, stack, PermRW); err != nil {
			tb.Fatal(err)
		}
		if err := as.Unmap(benchPage, stack); err != nil {
			tb.Fatal(err)
		}
	}
}

// allocatorSink keeps newAllocatorOp's result on the heap, where callers
// keep theirs.
var allocatorSink *Allocator

// newAllocatorOp creates an allocator for a seed the seed memo holds.
func newAllocatorOp(tb testing.TB) func() {
	seed := int64(42)
	if memoFor(seed) == nil {
		// Earlier tests filled the memo with their seeds; use one.
		seedMemo.Lock()
		for s := range seedMemo.draws {
			seed = s
			break
		}
		seedMemo.Unlock()
	}
	as := NewAddressSpace()
	return func() {
		allocatorSink = NewAllocator(as, benchPage, benchUnmapped, seed)
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

// accessibleUnmappedOp is the kernel's -EFAULT check of one unmapped
// pointer, repeated: the data cache answers it, so it neither allocates nor
// hashes.
func accessibleUnmappedOp(tb testing.TB) func() {
	as := benchSpace(tb)
	return func() {
		if as.Accessible(benchUnmapped, 8, AccessRead) {
			tb.Fatal("an unmapped page is accessible")
		}
	}
}

// forkSnapshotOp forks a snapshot, a fork of a written address space that
// is never written itself, as every fuzz probe does: the copy shares the
// snapshot's page table.
func forkSnapshotOp(tb testing.TB) func() {
	snap := benchSpace(tb).Fork()
	return func() {
		if snap.Fork().pages == nil {
			tb.Fatal("fork has no page table")
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
func BenchmarkMapStack(b *testing.B)      { benchOp(b, mapStackOp) }
func BenchmarkNewAllocator(b *testing.B)  { benchOp(b, newAllocatorOp) }
func BenchmarkForkSnapshot(b *testing.B)  { benchOp(b, forkSnapshotOp) }

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
		{"Accessible/unmapped", accessibleUnmappedOp, 0},
		// A page's bytes are allocated on its first write.
		{"ReadUint/untouched", readUintUntouchedOp, 0},
		{"FetchExec/untouched", fetchExecUntouchedOp, 0},
		// One header slab per Map call, however many pages.
		{"Map/stack", mapStackOp, 1},
		// A memoized seed costs only the Allocator itself.
		{"NewAllocator/memoized", newAllocatorOp, 1},
		// The AddressSpace itself: the fork shares the page table.
		{"Fork/snapshot", forkSnapshotOp, 1},
	}
	for _, r := range rows {
		if got := testing.AllocsPerRun(100, r.op(t)); got > r.budget {
			t.Errorf("%s: %v allocs/op, budget %v (%s)", r.name, got, r.budget, runtime.Version())
		}
	}
}
