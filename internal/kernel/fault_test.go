package kernel

import (
	"maps"
	"testing"

	"crashresist/internal/asm"
	"crashresist/internal/isa"
	"crashresist/internal/mem"
)

// TestReadEFAULTOnPartialMapping verifies all-or-nothing copy semantics:
// a buffer that starts on a mapped page but runs into unmapped memory must
// yield -EFAULT with no partial write (matching copy_to_user behaviour).
func TestReadEFAULTOnPartialMapping(t *testing.T) {
	p, k := buildLinuxProc(t, func(b *asm.Builder) {
		b.Func("main").Entry("main")
		emitSyscall(b, SysSocket)
		b.MovRR(isa.R6, isa.R0)
		b.MovRR(isa.R1, isa.R6).MovRI(isa.R2, 80)
		emitSyscall(b, SysBind)
		b.MovRR(isa.R1, isa.R6)
		emitSyscall(b, SysListen)
		b.MovRR(isa.R1, isa.R6).MovRI(isa.R2, 0)
		emitSyscall(b, SysAccept)
		b.MovRR(isa.R7, isa.R0)
		// read(conn, bufptr, 64) with bufptr loaded from a global.
		b.MovRR(isa.R1, isa.R7).
			LeaData(isa.R2, "bufptr").
			Load(8, isa.R2, isa.R2, 0).
			MovRI(isa.R3, 64)
		emitSyscall(b, SysRead)
		b.MovRR(isa.R1, isa.R0)
		emitSyscall(b, SysExit)
		b.EndFunc()
		b.BSS("bufptr", 8)
	})
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)

	// Map one page and aim the buffer at its last 16 bytes, so the
	// 64-byte read range runs off the end.
	const page = 0x200000000
	if err := p.AS.Map(page, mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	bufAddr := uint64(page + mem.PageSize - 16)
	mod := p.Modules()[0]
	bufptrVA := mod.VA(mod.Image.BSSStart())
	if err := p.AS.WriteUint(bufptrVA, 8, bufAddr); err != nil {
		t.Fatal(err)
	}

	cc, err := k.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	cc.Send([]byte("0123456789abcdef0123456789abcdef"))
	p.RunUntilIdle(1_000_000)

	if int64(p.ExitCode) != -EFAULT {
		t.Fatalf("read ret = %d, want -EFAULT", int64(p.ExitCode))
	}
	// No partial data may have landed in the mapped prefix.
	got, err := p.AS.Read(bufAddr, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		if c != 0 {
			t.Fatalf("partial copy leaked to byte %d: % x", i, got)
		}
	}

	// The fault-event time series bucketed the -EFAULT completion: bucket
	// totals always equal the EFAULT return counter.
	c := k.Counts()
	if c.EFAULTReturns == 0 {
		t.Fatal("EFAULTReturns = 0 after an -EFAULT completion")
	}
	var total uint64
	for _, n := range c.EFAULTBuckets {
		total += n
	}
	if total != c.EFAULTReturns {
		t.Errorf("fault buckets sum to %d, want %d", total, c.EFAULTReturns)
	}
	// Counts() hands out a clone: mutating it must not reach the kernel.
	for b := range c.EFAULTBuckets {
		c.EFAULTBuckets[b] += 100
	}
	if again := k.Counts(); again.EFAULTBuckets[firstKey(again.EFAULTBuckets)] >= 100 {
		t.Error("Counts() exposed the kernel's live bucket map")
	}
}

// firstKey returns any key of a non-empty map (test helper).
func firstKey(m map[uint64]uint64) uint64 {
	for k := range m {
		return k
	}
	return 0
}

// TestPathStringCrossingIntoUnmapped verifies EFAULT when a NUL-terminated
// path starts mapped but the terminator lies beyond the mapping.
func TestPathStringCrossingIntoUnmapped(t *testing.T) {
	p, _ := buildLinuxProc(t, func(b *asm.Builder) {
		b.Func("main").Entry("main")
		b.LeaData(isa.R1, "pathptr").Load(8, isa.R1, isa.R1, 0)
		emitSyscall(b, SysAccess)
		b.MovRR(isa.R1, isa.R0)
		emitSyscall(b, SysExit)
		b.EndFunc()
		b.BSS("pathptr", 8)
	})
	const page = 0x200000000
	if err := p.AS.Map(page, mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	// Fill the page tail with non-NUL bytes: the scan must walk off the
	// page before finding a terminator.
	tail := make([]byte, 16)
	for i := range tail {
		tail[i] = 'A'
	}
	if err := p.AS.Write(page+mem.PageSize-16, tail); err != nil {
		t.Fatal(err)
	}
	mod := p.Modules()[0]
	if err := p.AS.WriteUint(mod.VA(mod.Image.BSSStart()), 8, page+mem.PageSize-16); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)
	if int64(p.ExitCode) != -EFAULT {
		t.Errorf("access ret = %d, want -EFAULT", int64(p.ExitCode))
	}
	if p.Crash != nil {
		t.Errorf("kernel path scan crashed the process: %v", p.Crash)
	}
}

// TestEpollWaitEventsBufferPartiallyMapped verifies the events output range
// is validated in full before any event is written.
func TestEpollWaitEventsBufferPartiallyMapped(t *testing.T) {
	p, k := buildLinuxProc(t, func(b *asm.Builder) {
		b.Func("main").Entry("main")
		emitSyscall(b, SysSocket)
		b.MovRR(isa.R6, isa.R0)
		b.MovRR(isa.R1, isa.R6).MovRI(isa.R2, 80)
		emitSyscall(b, SysBind)
		b.MovRR(isa.R1, isa.R6)
		emitSyscall(b, SysListen)
		emitSyscall(b, SysEpollCreate)
		b.MovRR(isa.R9, isa.R0)
		b.LeaData(isa.R4, "ev").MovRI(isa.R5, EpollIn).Store(4, isa.R4, 0, isa.R5).Store(8, isa.R4, 8, isa.R6)
		b.MovRR(isa.R1, isa.R9).MovRI(isa.R2, EpollCtlAdd).MovRR(isa.R3, isa.R6)
		emitSyscall(b, SysEpollCtl)
		// epoll_wait with 8 events into a buffer loaded from a global.
		b.MovRR(isa.R1, isa.R9).
			LeaData(isa.R2, "evptr").
			Load(8, isa.R2, isa.R2, 0).
			MovRI(isa.R3, 8).
			MovRI(isa.R4, 0)
		emitSyscall(b, SysEpollWait)
		b.MovRR(isa.R1, isa.R0)
		emitSyscall(b, SysExit)
		b.EndFunc()
		b.BSS("ev", 16)
		b.BSS("evptr", 8)
	})
	const page = 0x200000000
	if err := p.AS.Map(page, mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	mod := p.Modules()[0]
	// 8 events × 16 bytes = 128; place the buffer 64 bytes from the end.
	evptrOff := mod.Image.BSSStart() + 16
	if err := p.AS.WriteUint(mod.VA(evptrOff), 8, page+mem.PageSize-64); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Connect(80); err == nil {
		t.Fatal("connect before listen should fail") // server not yet running
	}
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)
	if int64(p.ExitCode) != -EFAULT {
		t.Errorf("epoll_wait ret = %d, want -EFAULT (partial range)", int64(p.ExitCode))
	}
}

// TestWriteToReadOnlyBufferEFAULT: read() into a read-only page must EFAULT,
// not fault — the permission check matters, not just the mapping.
func TestWriteToReadOnlyBufferEFAULT(t *testing.T) {
	p, k := buildLinuxProc(t, func(b *asm.Builder) {
		b.Func("main").Entry("main")
		emitSyscall(b, SysSocket)
		b.MovRR(isa.R6, isa.R0)
		b.MovRR(isa.R1, isa.R6).MovRI(isa.R2, 80)
		emitSyscall(b, SysBind)
		b.MovRR(isa.R1, isa.R6)
		emitSyscall(b, SysListen)
		b.MovRR(isa.R1, isa.R6).MovRI(isa.R2, 0)
		emitSyscall(b, SysAccept)
		b.MovRR(isa.R7, isa.R0)
		b.MovRR(isa.R1, isa.R7).
			LeaData(isa.R2, "roptr").
			Load(8, isa.R2, isa.R2, 0).
			MovRI(isa.R3, 8)
		emitSyscall(b, SysRead)
		b.MovRR(isa.R1, isa.R0)
		emitSyscall(b, SysExit)
		b.EndFunc()
		b.BSS("roptr", 8)
	})
	const page = 0x200000000
	if err := p.AS.Map(page, mem.PageSize, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	mod := p.Modules()[0]
	if err := p.AS.WriteUint(mod.VA(mod.Image.BSSStart()), 8, page); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)
	cc, err := k.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	cc.Send([]byte("x"))
	p.RunUntilIdle(1_000_000)
	if int64(p.ExitCode) != -EFAULT {
		t.Errorf("read into r/o page ret = %d, want -EFAULT", int64(p.ExitCode))
	}
}

// TestEFAULTBucketsBySecond returns -EFAULT at clocks spread over several
// virtual seconds, reading Counts between some of them: every read must
// equal a series bucketed return by return, so folding the current
// second's count into the series neither loses nor repeats a return.
func TestEFAULTBucketsBySecond(t *testing.T) {
	f := newDispatchFixture(t)
	want := map[uint64]uint64{}
	for i, clock := range []uint64{5, 900_000, 999_999, 1_000_000, 1_000_001, 3_500_000, 3_500_000, 7_000_000} {
		f.p.Clock = clock
		if ret := f.call(SysAccess, [5]uint64{0xdead0000}); int64(ret) != -EFAULT {
			t.Fatalf("access = %d, want -EFAULT", int64(ret))
		}
		want[clock/TicksPerSecond]++
		if i%3 == 1 {
			if got := f.k.Counts().EFAULTBuckets; !maps.Equal(got, want) {
				t.Fatalf("after %d returns: buckets %v, want %v", i+1, got, want)
			}
		}
	}
	c := f.k.Counts()
	if !maps.Equal(c.EFAULTBuckets, want) || c.EFAULTReturns != 8 {
		t.Errorf("buckets %v and %d returns, want %v and 8", c.EFAULTBuckets, c.EFAULTReturns, want)
	}
}
