package kernel

import (
	"bytes"
	"fmt"
	"testing"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/isa"
	"crashresist/internal/mem"
	"crashresist/internal/vm"
)

// negErr encodes -errno as a register value at runtime (avoids constant
// conversion overflow).
func negErr(e uint64) uint64 { return -e }

// buildLinuxProc assembles the image and attaches a fresh kernel.
func buildLinuxProc(t *testing.T, fill func(b *asm.Builder)) (*vm.Process, *Kernel) {
	t.Helper()
	b := asm.NewBuilder("srv.exe", bin.KindExecutable)
	fill(b)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := vm.NewProcess(vm.Config{Platform: vm.PlatformLinux, Seed: 77})
	k := New()
	k.Attach(p)
	if _, err := p.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	return p, k
}

// emitSyscall emits: R0=num, syscall. Args must already be in R1..R5.
func emitSyscall(b *asm.Builder, num uint64) *asm.Builder {
	return b.MovRI(isa.R0, num).Syscall()
}

// echoServer builds a single-connection echo server on port 80:
// socket/bind/listen/accept, then loop { n=read(fd,buf,64); if n<=0 exit;
// write(fd,buf,n) }.
func echoServer(b *asm.Builder) {
	b.Func("main").Entry("main")
	emitSyscall(b, SysSocket) // R0 = sockfd
	b.MovRR(isa.R6, isa.R0)   // R6 = sockfd
	b.MovRR(isa.R1, isa.R6).MovRI(isa.R2, 80)
	emitSyscall(b, SysBind)
	b.MovRR(isa.R1, isa.R6)
	emitSyscall(b, SysListen)
	b.MovRR(isa.R1, isa.R6).MovRI(isa.R2, 0)
	emitSyscall(b, SysAccept)
	b.MovRR(isa.R7, isa.R0) // R7 = connfd
	b.Label("loop")
	b.MovRR(isa.R1, isa.R7).LeaData(isa.R2, "buf").MovRI(isa.R3, 64)
	emitSyscall(b, SysRead)
	b.MovRR(isa.R8, isa.R0) // n
	b.CmpRI(isa.R8, 0)
	b.Jle("done")
	b.MovRR(isa.R1, isa.R7).LeaData(isa.R2, "buf").MovRR(isa.R3, isa.R8)
	emitSyscall(b, SysWrite)
	b.Jmp("loop")
	b.Label("done")
	b.MovRI(isa.R1, 0)
	emitSyscall(b, SysExit)
	b.EndFunc()
	b.BSS("buf", 64)
}

func TestEchoServer(t *testing.T) {
	p, k := buildLinuxProc(t, echoServer)
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	res := p.RunUntilIdle(1_000_000)
	if res.State != vm.ProcIdle {
		t.Fatalf("server state = %v (crash=%v), want idle in accept", res.State, p.Crash)
	}

	cc, err := k.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000) // accept completes, blocks in read

	cc.Send([]byte("hello"))
	p.RunUntilIdle(1_000_000)
	if got := cc.Recv(); !bytes.Equal(got, []byte("hello")) {
		t.Errorf("echo = %q, want hello", got)
	}

	cc.Send([]byte("again"))
	p.RunUntilIdle(1_000_000)
	if got := cc.Recv(); !bytes.Equal(got, []byte("again")) {
		t.Errorf("echo 2 = %q", got)
	}

	cc.Close()
	p.RunUntilIdle(1_000_000)
	if p.State != vm.ProcExited {
		t.Errorf("server should exit on EOF, state = %v", p.State)
	}
}

func TestConnectToMissingPort(t *testing.T) {
	_, k := buildLinuxProc(t, echoServer)
	if _, err := k.Connect(9999); err == nil {
		t.Error("Connect to missing port should fail")
	}
}

func TestReadEFAULTOnCorruptedPointer(t *testing.T) {
	// A server whose read buffer pointer lives in memory; corrupting it to
	// an unmapped address must make read return -EFAULT without a crash.
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
		b.Label("loop")
		// Load the buffer pointer from the connection struct each
		// iteration (like Nginx's ngx_buf_t).
		b.MovRR(isa.R1, isa.R7).LeaData(isa.R2, "bufptr").Load(8, isa.R2, isa.R2, 0).MovRI(isa.R3, 64)
		emitSyscall(b, SysRead)
		b.CmpRI(isa.R0, 0)
		b.Jg("ok")
		// Error path: close connection, write marker, exit gracefully.
		b.MovRR(isa.R1, isa.R7)
		emitSyscall(b, SysClose)
		b.MovRI(isa.R1, 42)
		emitSyscall(b, SysExit)
		b.Label("ok")
		b.Jmp("loop")
		b.EndFunc()
		b.DataPtr("bufptr", "buf")
		b.BSS("buf", 64)
	})
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)

	cc, err := k.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	cc.Send([]byte("x"))
	p.RunUntilIdle(1_000_000) // one successful read; blocks on next

	// Corrupt the buffer pointer to an unmapped address.
	mod := p.Modules()[0]
	var bufptrOff uint32
	for _, r := range mod.Image.Relocs {
		bufptrOff = r.Offset
	}
	if err := p.AS.WriteUint(mod.VA(bufptrOff), 8, 0xdead0000); err != nil {
		t.Fatal(err)
	}
	cc.Send([]byte("y"))
	p.RunUntilIdle(1_000_000)

	if p.State != vm.ProcExited || p.ExitCode != 42 {
		t.Errorf("state=%v exit=%d crash=%v; want graceful EFAULT path (exit 42)",
			p.State, p.ExitCode, p.Crash)
	}
	if p.Crash != nil {
		t.Errorf("server crashed: %v", p.Crash)
	}
}

func TestEpollWaitServesAndTimesOut(t *testing.T) {
	// epoll server: registers the listener, waits with a 1-second timeout
	// in a loop, counts timeouts at "timeouts"; on a ready listener it
	// accepts and echoes one message.
	p, k := buildLinuxProc(t, func(b *asm.Builder) {
		b.Func("main").Entry("main")
		emitSyscall(b, SysSocket)
		b.MovRR(isa.R6, isa.R0)
		b.MovRR(isa.R1, isa.R6).MovRI(isa.R2, 80)
		emitSyscall(b, SysBind)
		b.MovRR(isa.R1, isa.R6)
		emitSyscall(b, SysListen)
		emitSyscall(b, SysEpollCreate)
		b.MovRR(isa.R9, isa.R0) // epfd
		// event struct: events=EPOLLIN, data=listener fd
		b.LeaData(isa.R4, "ev").MovRI(isa.R5, EpollIn).Store(4, isa.R4, 0, isa.R5)
		b.Store(8, isa.R4, 8, isa.R6)
		b.MovRR(isa.R1, isa.R9).MovRI(isa.R2, EpollCtlAdd).MovRR(isa.R3, isa.R6).MovRR(isa.R4, isa.R4)
		emitSyscall(b, SysEpollCtl)
		b.Label("wait")
		b.MovRR(isa.R1, isa.R9).LeaData(isa.R2, "events").MovRI(isa.R3, 4).MovRI(isa.R4, TicksPerSecond)
		emitSyscall(b, SysEpollWait)
		b.CmpRI(isa.R0, 0)
		b.Jg("ready")
		// timeout: increment counter, loop (max 3 timeouts then exit)
		b.LeaData(isa.R2, "timeouts").Load(8, isa.R3, isa.R2, 0).AddRI(isa.R3, 1).Store(8, isa.R2, 0, isa.R3)
		b.CmpRI(isa.R3, 3)
		b.Jge("quit")
		b.Jmp("wait")
		b.Label("ready")
		b.MovRR(isa.R1, isa.R6).MovRI(isa.R2, 0)
		emitSyscall(b, SysAccept)
		b.MovRR(isa.R7, isa.R0)
		b.MovRR(isa.R1, isa.R7).LeaData(isa.R2, "buf").MovRI(isa.R3, 64)
		emitSyscall(b, SysRead)
		b.MovRR(isa.R8, isa.R0)
		b.MovRR(isa.R1, isa.R7).LeaData(isa.R2, "buf").MovRR(isa.R3, isa.R8)
		emitSyscall(b, SysWrite)
		b.Jmp("wait")
		b.Label("quit")
		b.MovRI(isa.R1, 7)
		emitSyscall(b, SysExit)
		b.EndFunc()
		b.BSS("ev", 16)
		b.BSS("events", 64)
		b.BSS("buf", 64)
		b.BSS("timeouts", 8)
	})
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	// Let it set up and block in epoll_wait.
	p.Run(100_000)

	cc, err := k.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	cc.Send([]byte("ping"))
	p.Run(200_000)
	if got := cc.Recv(); !bytes.Equal(got, []byte("ping")) {
		t.Fatalf("epoll echo = %q (state=%v crash=%v)", got, p.State, p.Crash)
	}

	// With no more traffic, three 1-second timeouts must elapse on the
	// virtual clock and the server exits with code 7.
	p.RunUntilIdle(10 * TicksPerSecond)
	if p.State != vm.ProcExited || p.ExitCode != 7 {
		t.Errorf("state=%v exit=%d, want timeout-driven exit 7", p.State, p.ExitCode)
	}
}

func TestEpollWaitEFAULTDoesNotBlock(t *testing.T) {
	// When the events pointer is invalid, epoll_wait must return -EFAULT
	// immediately (tight failing loop — the Cherokee §VI-D behaviour),
	// not consume its timeout.
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
		// 1000 failing epoll_wait calls with bad pointer, then exit.
		b.MovRI(isa.R10, 1000)
		b.Label("loop")
		b.MovRR(isa.R1, isa.R9).MovRI(isa.R2, 0xdead0000).MovRI(isa.R3, 4).MovRI(isa.R4, TicksPerSecond)
		emitSyscall(b, SysEpollWait)
		b.SubRI(isa.R10, 1)
		b.TestRR(isa.R10, isa.R10)
		b.Jnz("loop")
		b.MovRR(isa.R1, isa.R0) // last ret
		emitSyscall(b, SysExit)
		b.EndFunc()
	})
	_ = k
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	res := p.RunUntilIdle(100 * TicksPerSecond)
	if p.State != vm.ProcExited {
		t.Fatalf("state = %v", p.State)
	}
	if int64(p.ExitCode) != -EFAULT {
		t.Errorf("last epoll_wait ret = %d, want -EFAULT", int64(p.ExitCode))
	}
	// 1000 spins must cost far less than 1000 virtual seconds.
	if res.Ticks > 10*TicksPerSecond {
		t.Errorf("EFAULT loop consumed %d ticks; it must not block", res.Ticks)
	}
}

func TestPathSyscalls(t *testing.T) {
	p, k := buildLinuxProc(t, func(b *asm.Builder) {
		b.Func("main").Entry("main")
		// access("/etc/conf") → expect 0 (exists)
		b.LeaData(isa.R1, "path")
		emitSyscall(b, SysAccess)
		b.MovRR(isa.R10, isa.R0)
		// unlink it
		b.LeaData(isa.R1, "path")
		emitSyscall(b, SysUnlink)
		// access again → -ENOENT
		b.LeaData(isa.R1, "path")
		emitSyscall(b, SysAccess)
		b.MovRR(isa.R11, isa.R0)
		// access with bad pointer → -EFAULT
		b.MovRI(isa.R1, 0xbad0000)
		emitSyscall(b, SysAccess)
		b.MovRR(isa.R12, isa.R0)
		// Pack results: exit code = (r10==0) + (r11==-ENOENT)<<1 + (r12==-EFAULT)<<2
		b.MovRI(isa.R1, 0)
		b.CmpRI(isa.R10, 0)
		b.Jnz("c2")
		b.OrRI(isa.R1, 1)
		b.Label("c2")
		b.MovRI(isa.R5, negErr(ENOENT))
		b.CmpRR(isa.R11, isa.R5)
		b.Jnz("c3")
		b.OrRI(isa.R1, 2)
		b.Label("c3")
		b.MovRI(isa.R5, negErr(EFAULT))
		b.CmpRR(isa.R12, isa.R5)
		b.Jnz("c4")
		b.OrRI(isa.R1, 4)
		b.Label("c4")
		emitSyscall(b, SysExit)
		b.EndFunc()
		b.Data("path", []byte("/etc/conf\x00"))
	})
	k.AddFile("/etc/conf", []byte("config"))
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)
	if p.ExitCode != 7 {
		t.Errorf("path syscall checks = %03b, want 111", p.ExitCode)
	}
}

func TestOpenReadWriteFile(t *testing.T) {
	p, k := buildLinuxProc(t, func(b *asm.Builder) {
		b.Func("main").Entry("main")
		b.LeaData(isa.R1, "path").MovRI(isa.R2, 0)
		emitSyscall(b, SysOpen)
		b.MovRR(isa.R6, isa.R0)
		b.MovRR(isa.R1, isa.R6).LeaData(isa.R2, "buf").MovRI(isa.R3, 16)
		emitSyscall(b, SysRead)
		b.MovRR(isa.R1, isa.R0) // bytes read
		emitSyscall(b, SysExit)
		b.EndFunc()
		b.Data("path", []byte("/data\x00"))
		b.BSS("buf", 16)
	})
	k.AddFile("/data", []byte("sixteen bytes!!!"))
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)
	if p.ExitCode != 16 {
		t.Errorf("read = %d, want 16", p.ExitCode)
	}
}

func TestOpenMissingFileENOENT(t *testing.T) {
	p, _ := buildLinuxProc(t, func(b *asm.Builder) {
		b.Func("main").Entry("main")
		b.LeaData(isa.R1, "path").MovRI(isa.R2, 0)
		emitSyscall(b, SysOpen)
		b.MovRR(isa.R1, isa.R0)
		emitSyscall(b, SysExit)
		b.EndFunc()
		b.Data("path", []byte("/missing\x00"))
	})
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)
	if int64(p.ExitCode) != -ENOENT {
		t.Errorf("open ret = %d, want -ENOENT", int64(p.ExitCode))
	}
}

func TestSigactionRegistersHandler(t *testing.T) {
	p, _ := buildLinuxProc(t, func(b *asm.Builder) {
		b.Func("main").Entry("main")
		b.MovRI(isa.R1, uint64(vm.SigSegv)).LeaCode(isa.R2, "handler")
		emitSyscall(b, SysSigaction)
		// Trigger a fault; handler writes 5 to "flag"; resume reads it.
		b.MovRI(isa.R5, 0xbad0000)
		b.Load(8, isa.R4, isa.R5, 0)
		b.LeaData(isa.R2, "flag").Load(8, isa.R1, isa.R2, 0)
		emitSyscall(b, SysExit)
		b.EndFunc()
		b.Func("handler").
			MovRI(isa.R4, 5).
			LeaData(isa.R5, "flag").
			Store(8, isa.R5, 0, isa.R4).
			Ret().
			EndFunc()
		b.BSS("flag", 8)
	})
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)
	if p.State != vm.ProcExited || p.ExitCode != 5 {
		t.Errorf("state=%v exit=%d crash=%v", p.State, p.ExitCode, p.Crash)
	}
}

func TestSpawnThread(t *testing.T) {
	p, _ := buildLinuxProc(t, func(b *asm.Builder) {
		b.Func("main").Entry("main")
		b.LeaCode(isa.R1, "worker").MovRI(isa.R2, 21)
		emitSyscall(b, SysSpawnThread)
		// Sleep to let the worker run, then read the result.
		b.MovRI(isa.R1, 1000)
		emitSyscall(b, SysNanosleep)
		b.LeaData(isa.R2, "out").Load(8, isa.R1, isa.R2, 0)
		emitSyscall(b, SysExit)
		b.EndFunc()
		b.Func("worker").
			// R1 = arg; double it into "out", then exit_thread.
			MovRR(isa.R3, isa.R1).
			AddRR(isa.R3, isa.R1).
			LeaData(isa.R4, "out").
			Store(8, isa.R4, 0, isa.R3).
			MovRI(isa.R0, SysExitThread).
			Syscall().
			EndFunc()
		b.BSS("out", 8)
	})
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(10_000_000)
	if p.State != vm.ProcExited || p.ExitCode != 42 {
		t.Errorf("state=%v exit=%d, want 42 from worker", p.State, p.ExitCode)
	}
}

type recordingObserver struct {
	entered []string
	exits   map[string]uint64
}

func (r *recordingObserver) SyscallEnter(ev Event) {
	r.entered = append(r.entered, ev.Name)
}

func (r *recordingObserver) SyscallExit(ev Event, ret uint64) {
	if r.exits == nil {
		r.exits = make(map[string]uint64)
	}
	r.exits[ev.Name] = ret
}

func TestObserverSeesSyscalls(t *testing.T) {
	p, k := buildLinuxProc(t, func(b *asm.Builder) {
		b.Func("main").Entry("main")
		b.MovRI(isa.R1, 0xbad0000)
		emitSyscall(b, SysAccess)
		b.MovRI(isa.R1, 0)
		emitSyscall(b, SysExit)
		b.EndFunc()
	})
	obs := &recordingObserver{}
	k.SetObserver(obs)
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)
	if len(obs.entered) != 2 || obs.entered[0] != "access" {
		t.Errorf("entered = %v", obs.entered)
	}
	if got := obs.exits["access"]; int64(got) != -EFAULT {
		t.Errorf("access ret = %d, want -EFAULT", int64(got))
	}
}

func TestSpecsTableIComplete(t *testing.T) {
	// The EFAULT-capable subset must cover the 13 syscalls of Table I.
	want := []string{
		"chmod", "connect", "epoll_wait", "mkdir", "open", "read",
		"recv", "recvfrom", "send", "sendmsg", "symlink", "unlink", "write",
	}
	capable := make(map[string]bool)
	for _, s := range Specs() {
		if s.CanEFAULT {
			capable[s.Name] = true
		}
	}
	for _, name := range want {
		if !capable[name] {
			t.Errorf("syscall %q missing from EFAULT-capable set", name)
		}
	}
}

func TestSpecFor(t *testing.T) {
	s, ok := SpecFor(SysRead)
	if !ok || s.Name != "read" || len(s.PtrArgs()) != 1 {
		t.Errorf("SpecFor(read) = %+v %v", s, ok)
	}
	for _, num := range []uint64{0, uint64(len(table)), 9999} {
		if _, ok := SpecFor(num); ok {
			t.Errorf("SpecFor(%d) should miss", num)
		}
	}
	for i, s := range table {
		if s.Num != uint64(i) {
			t.Errorf("table[%d] holds syscall %d (%q)", i, s.Num, s.Name)
		}
		if i == 0 {
			continue
		}
		if got, ok := SpecFor(uint64(i)); !ok || got != s {
			t.Errorf("SpecFor(%d) = %+v, %v; want %+v", i, got, ok, s)
		}
	}
}

// TestSpecsAreCopies writes through everything a SpecFor or Specs result
// reaches. The next lookups must not see any of it: the table is shared by
// every kernel in the process.
func TestSpecsAreCopies(t *testing.T) {
	show := func(s Spec) string {
		return fmt.Sprintf("%d %q %v %v", s.Num, s.Name, s.CanEFAULT, s.PtrArgs())
	}
	scribble := func(s *Spec) {
		args := s.PtrArgs()
		for i := range args {
			args[i] = PtrArg{Index: 9, Access: mem.AccessExec}
		}
		s.Num, s.Name, s.CanEFAULT = 0, "scribbled", !s.CanEFAULT
	}
	var want []string
	for _, s := range Specs() {
		want = append(want, show(s))
	}
	specs := Specs()
	for i := range specs {
		one, _ := SpecFor(specs[i].Num)
		scribble(&one)
		scribble(&specs[i])
	}
	for i, s := range Specs() {
		if got := show(s); got != want[i] {
			t.Errorf("Specs()[%d] = %s after writes through earlier results; want %s", i, got, want[i])
		}
		if one, _ := SpecFor(s.Num); show(one) != want[i] {
			t.Errorf("SpecFor(%d) = %s after writes through earlier results; want %s", s.Num, show(one), want[i])
		}
	}
}

func TestUnknownSyscallEINVAL(t *testing.T) {
	p, _ := buildLinuxProc(t, func(b *asm.Builder) {
		b.Func("main").Entry("main")
		emitSyscall(b, 9999)
		b.MovRR(isa.R1, isa.R0)
		emitSyscall(b, SysExit)
		b.EndFunc()
	})
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)
	if int64(p.ExitCode) != -EINVAL {
		t.Errorf("unknown syscall ret = %d, want -EINVAL", int64(p.ExitCode))
	}
}

func TestSendmsgEFAULTOnHeader(t *testing.T) {
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
		// sendmsg with invalid msghdr pointer.
		b.MovRR(isa.R1, isa.R7).MovRI(isa.R2, 0xdead0000)
		emitSyscall(b, SysSendmsg)
		b.MovRR(isa.R1, isa.R0)
		emitSyscall(b, SysExit)
		b.EndFunc()
	})
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)
	if _, err := k.Connect(80); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)
	if int64(p.ExitCode) != -EFAULT {
		t.Errorf("sendmsg ret = %d, want -EFAULT", int64(p.ExitCode))
	}
}
