package kernel

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/mem"
	"crashresist/internal/vm"
)

// Descriptors the dispatch fixture installs, in POSIX lowest-free order.
// The committed FuzzSyscallDispatch corpus names them by number.
const (
	fixtureFileFD  = 3
	fixtureEpollFD = 4
)

const (
	fixturePath  = "/etc/motd"
	fixtureData  = "crash-resistant\n"
	unmappedAddr = 0xdead0000
)

// dispatchFixture is a started Linux process with a kernel, one mapped RW
// page holding the NUL-terminated path of an existing file, that file open
// and an epoll instance. Syscalls load the main thread's registers and call
// Kernel.Syscall directly, without running any instructions.
type dispatchFixture struct {
	p    *vm.Process
	k    *Kernel
	t    *vm.Thread
	page uint64
}

func newDispatchFixture(tb testing.TB) *dispatchFixture {
	tb.Helper()
	b := asm.NewBuilder("dispatch.exe", bin.KindExecutable)
	b.Func("main").Entry("main").Halt().EndFunc()
	img, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	p := vm.NewProcess(vm.Config{Platform: vm.PlatformLinux, Seed: 77})
	k := New()
	k.Attach(p)
	if _, err := p.LoadImage(img); err != nil {
		tb.Fatal(err)
	}
	t, err := p.Start()
	if err != nil {
		tb.Fatal(err)
	}
	page, err := p.Alloc.Alloc(mem.PageSize, mem.PermRW)
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.AS.Write(page, append([]byte(fixturePath), 0)); err != nil {
		tb.Fatal(err)
	}
	k.AddFile(fixturePath, []byte(fixtureData))
	f := &dispatchFixture{p: p, k: k, t: t, page: page}
	if fd := f.call(SysOpen, [5]uint64{page}); fd != fixtureFileFD {
		tb.Fatalf("open = %d, want fd %d", int64(fd), fixtureFileFD)
	}
	if fd := f.call(SysEpollCreate, [5]uint64{}); fd != fixtureEpollFD {
		tb.Fatalf("epoll_create = %d, want fd %d", int64(fd), fixtureEpollFD)
	}
	return f
}

// call dispatches one syscall and returns R0: the result when the call
// completed, num itself when it blocked.
func (f *dispatchFixture) call(num uint64, args [5]uint64) uint64 {
	f.t.SetReg(0, num)
	copy(f.t.Regs[1:6], args[:])
	f.k.Syscall(f.p, f.t)
	return f.t.Reg(0)
}

func getpidOp(tb testing.TB) func() {
	f := newDispatchFixture(tb)
	return func() {
		if got := f.call(SysGetpid, [5]uint64{}); got != 1 {
			tb.Fatalf("getpid = %d, want 1", got)
		}
	}
}

func accessEFAULTOp(tb testing.TB) func() {
	f := newDispatchFixture(tb)
	return func() {
		if got := f.call(SysAccess, [5]uint64{unmappedAddr}); int64(got) != -EFAULT {
			tb.Fatalf("access(unmapped) = %d, want -EFAULT", int64(got))
		}
	}
}

// epollWaitEFAULTOp is the Cherokee validation replay's loop: epoll_wait
// with its events pointer corrupted to unmapped memory.
func epollWaitEFAULTOp(tb testing.TB) func() {
	f := newDispatchFixture(tb)
	return func() {
		if got := f.call(SysEpollWait, [5]uint64{fixtureEpollFD, unmappedAddr, 1, 0}); int64(got) != -EFAULT {
			tb.Fatalf("epoll_wait(unmapped) = %d, want -EFAULT", int64(got))
		}
	}
}

func specForOp(tb testing.TB) func() {
	return func() {
		if _, ok := SpecFor(SysRead); !ok {
			tb.Fatal("SpecFor(read) missed")
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

// BenchmarkSyscallGetpid is the cheapest dispatch: no arguments, no memory.
func BenchmarkSyscallGetpid(b *testing.B) { benchOp(b, getpidOp) }

// BenchmarkSyscallEFAULT is the §IV-A probe: a path pointer into unmapped
// memory, answered with -EFAULT.
func BenchmarkSyscallEFAULT(b *testing.B) { benchOp(b, accessEFAULTOp) }

// BenchmarkEpollWaitEFAULT is the Cherokee replay's failing epoll_wait.
func BenchmarkEpollWaitEFAULT(b *testing.B) { benchOp(b, epollWaitEFAULTOp) }

// BenchmarkSpecFor is the table lookup every dispatch and every taint
// observation makes.
func BenchmarkSpecFor(b *testing.B) { benchOp(b, specForOp) }

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
		{"Syscall/getpid", getpidOp, 0},
		{"Syscall/access-EFAULT", accessEFAULTOp, 0},
		{"Syscall/epoll_wait-EFAULT", epollWaitEFAULTOp, 0},
		{"SpecFor/read", specForOp, 0},
	}
	for _, r := range rows {
		if got := testing.AllocsPerRun(100, r.op(t)); got > r.budget {
			t.Errorf("%s: %v allocs/op, budget %v (%s)", r.name, got, r.budget, runtime.Version())
		}
	}
}

// TestDispatchEdgeCases pins the two inputs of FuzzSyscallDispatch's seed
// corpus and the EP_MAX_EVENTS boundary. Each row runs on a fresh fixture.
func TestDispatchEdgeCases(t *testing.T) {
	efault, einval := negErr(EFAULT), negErr(EINVAL)
	rows := []struct {
		name string
		num  uint64
		args func(f *dispatchFixture) [5]uint64
		want uint64
	}{
		// A count past the bytes left reads what is left, however
		// large; int(1<<63) used to slice the file with a negative
		// bound.
		{"read/count-1<<63", SysRead, func(f *dispatchFixture) [5]uint64 {
			return [5]uint64{fixtureFileFD, f.page, 1 << 63}
		}, uint64(len(fixtureData))},
		// maxevents*EpollEventSize used to wrap to 0, so an unmapped
		// events pointer passed the empty-range check.
		{"epoll_wait/maxevents-1<<60", SysEpollWait, func(*dispatchFixture) [5]uint64 {
			return [5]uint64{fixtureEpollFD, unmappedAddr, 1 << 60}
		}, einval},
		{"epoll_wait/maxevents-1<<63", SysEpollWait, func(*dispatchFixture) [5]uint64 {
			return [5]uint64{fixtureEpollFD, unmappedAddr, 1 << 63}
		}, einval},
		{"epoll_wait/maxevents-over-limit", SysEpollWait, func(*dispatchFixture) [5]uint64 {
			return [5]uint64{fixtureEpollFD, unmappedAddr, math.MaxInt32/EpollEventSize + 1}
		}, einval},
		{"epoll_wait/maxevents-limit", SysEpollWait, func(*dispatchFixture) [5]uint64 {
			return [5]uint64{fixtureEpollFD, unmappedAddr, math.MaxInt32 / EpollEventSize}
		}, efault},
	}
	for _, r := range rows {
		f := newDispatchFixture(t)
		if got := f.call(r.num, r.args(f)); got != r.want {
			t.Errorf("%s: got %d, want %d", r.name, int64(got), int64(r.want))
		}
	}
	f := newDispatchFixture(t)
	f.call(SysRead, [5]uint64{fixtureFileFD, f.page, 1 << 63})
	if got, err := f.p.AS.Read(f.page, uint64(len(fixtureData))); err != nil || string(got) != fixtureData {
		t.Errorf("read(1<<63) buffer = %q, %v; want %q", got, err, fixtureData)
	}
}

// TestRecvHugeCount is read(1<<63)'s socket twin: streamRead made the same
// int(n) conversion, which went negative and ended in -EFAULT.
func TestRecvHugeCount(t *testing.T) {
	f := newDispatchFixture(t)
	sock := f.call(SysSocket, [5]uint64{})
	f.call(SysBind, [5]uint64{sock, 80})
	f.call(SysListen, [5]uint64{sock})
	cc, err := f.k.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	conn := f.call(SysAccept, [5]uint64{sock, 1})
	cc.Send([]byte("ping"))
	if got := f.call(SysRecv, [5]uint64{conn, f.page, 1 << 63}); got != 4 {
		t.Fatalf("recv(1<<63) = %d, want 4", int64(got))
	}
	if got, _ := f.p.AS.Read(f.page, 4); string(got) != "ping" {
		t.Errorf("recv buffer = %q, want ping", got)
	}
}

// FuzzSyscallDispatch issues one syscall with arbitrary number and
// arguments against the dispatch fixture. Dispatch must never panic the
// host, and only a syscall whose Spec says it can may return -EFAULT: that
// return is the discovery pipeline's signal.
func FuzzSyscallDispatch(f *testing.F) {
	page := newDispatchFixture(f).page
	for _, s := range Specs() {
		f.Add(s.Num, uint64(fixtureFileFD), page, uint64(16), uint64(0), uint64(0))
		f.Add(s.Num, page, page, uint64(1), uint64(0), uint64(0))
	}
	f.Fuzz(func(t *testing.T, num, a0, a1, a2, a3, a4 uint64) {
		fx := newDispatchFixture(t)
		obs := &recordingObserver{}
		fx.k.SetObserver(obs)
		fx.call(num, [5]uint64{a0, a1, a2, a3, a4})
		spec, _ := SpecFor(num)
		if ret, done := obs.exits[spec.Name]; done && int64(ret) == -EFAULT && !spec.CanEFAULT {
			t.Fatalf("syscall %d (%q) returned -EFAULT but its spec cannot", num, spec.Name)
		}
	})
}
