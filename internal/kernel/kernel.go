// Package kernel implements the Linux-model system call layer for simulated
// processes: file descriptors, stream sockets driven by an external test
// monitor, epoll, a tiny in-memory filesystem, signals and threads.
//
// The property the paper's first discovery pipeline exploits lives here: the
// kernel validates every user pointer *before* touching it and reports
// -EFAULT to the caller instead of faulting, exactly like a real kernel's
// copy_from_user/copy_to_user path. A program that passes an
// attacker-controlled pointer to such a syscall and survives the error
// return is a crash-resistant probing primitive.
package kernel

import (
	"fmt"
	"maps"
	"slices"

	"crashresist/internal/faultinject"
	"crashresist/internal/mem"
	"crashresist/internal/vm"
)

// Syscall numbers (M64 Linux-model ABI: number in R0, args in R1..R5,
// result in R0; errors are returned as -errno).
const (
	SysExit        uint64 = 1
	SysExitThread  uint64 = 2
	SysRead        uint64 = 3
	SysWrite       uint64 = 4
	SysOpen        uint64 = 5
	SysClose       uint64 = 6
	SysSocket      uint64 = 7
	SysBind        uint64 = 8
	SysListen      uint64 = 9
	SysAccept      uint64 = 10
	SysConnect     uint64 = 11
	SysRecv        uint64 = 12
	SysRecvfrom    uint64 = 13
	SysSend        uint64 = 14
	SysSendmsg     uint64 = 15
	SysEpollCreate uint64 = 16
	SysEpollCtl    uint64 = 17
	SysEpollWait   uint64 = 18
	SysChmod       uint64 = 19
	SysMkdir       uint64 = 20
	SysUnlink      uint64 = 21
	SysSymlink     uint64 = 22
	SysSigaction   uint64 = 23
	SysSpawnThread uint64 = 24
	SysNanosleep   uint64 = 25
	SysAccess      uint64 = 26
	SysGetpid      uint64 = 27
)

// Errno values.
const (
	ENOENT = 2
	EIO    = 5
	EBADF  = 9
	EAGAIN = 11
	EFAULT = 14
	EINVAL = 22
)

// TicksPerSecond converts virtual clock ticks to simulated seconds; server
// models use it for epoll timeouts.
const TicksPerSecond = 1_000_000

// EpollEventSize is the byte size of a struct epoll_event in the M64 ABI:
// u32 events, u32 pad, u64 data.
const EpollEventSize = 16

// Epoll event bits.
const (
	EpollIn  = 0x1
	EpollOut = 0x4
	EpollHup = 0x10
)

// Epoll ctl ops.
const (
	EpollCtlAdd = 1
	EpollCtlDel = 2
	EpollCtlMod = 3
)

// errRet encodes -errno as a register value.
func errRet(errno uint64) uint64 { return -errno }

// PtrArg describes one pointer parameter of a syscall.
type PtrArg struct {
	// Index is the argument position (0 = R1).
	Index int
	// Access is the check the kernel performs on the pointed-to memory.
	Access mem.Access
}

// maxPtrArgs is the most pointer parameters any syscall in the table has.
const maxPtrArgs = 2

// Spec is the static description of one syscall, consumed by the discovery
// pipeline to know which calls can report EFAULT and where their pointer
// arguments sit. A Spec shares nothing mutable: every copy is independent,
// so no caller can change the kernel's table through one.
type Spec struct {
	Num  uint64
	Name string
	// CanEFAULT reports whether a bad pointer argument makes the call
	// return -EFAULT (rather than the argument being a non-pointer).
	CanEFAULT bool

	ptrArgs [maxPtrArgs]PtrArg
	nPtr    int
}

// PtrArgs lists the pointer parameters the kernel validates. The slice
// aliases s, not the kernel's table.
func (s *Spec) PtrArgs() []PtrArg { return s.ptrArgs[:s.nPtr] }

// efault builds the spec of a syscall that validates the given pointer
// parameters and answers a bad one with -EFAULT.
func efault(num uint64, name string, args ...PtrArg) Spec {
	s := Spec{Num: num, Name: name, CanEFAULT: true, nPtr: len(args)}
	copy(s.ptrArgs[:], args)
	return s
}

// inPtr is a parameter the kernel reads through; outPtr one it writes
// through.
func inPtr(i int) PtrArg  { return PtrArg{Index: i, Access: mem.AccessRead} }
func outPtr(i int) PtrArg { return PtrArg{Index: i, Access: mem.AccessWrite} }

// table holds each syscall's spec at the index of its number; slot 0 is
// unused. SpecFor and Specs hand out copies of it; dispatch reads names
// from it in place.
var table = [...]Spec{
	SysExit:        {Num: SysExit, Name: "exit"},
	SysExitThread:  {Num: SysExitThread, Name: "exit_thread"},
	SysRead:        efault(SysRead, "read", outPtr(1)),
	SysWrite:       efault(SysWrite, "write", inPtr(1)),
	SysOpen:        efault(SysOpen, "open", inPtr(0)),
	SysClose:       {Num: SysClose, Name: "close"},
	SysSocket:      {Num: SysSocket, Name: "socket"},
	SysBind:        {Num: SysBind, Name: "bind"},
	SysListen:      {Num: SysListen, Name: "listen"},
	SysAccept:      {Num: SysAccept, Name: "accept"},
	SysConnect:     efault(SysConnect, "connect", inPtr(1)),
	SysRecv:        efault(SysRecv, "recv", outPtr(1)),
	SysRecvfrom:    efault(SysRecvfrom, "recvfrom", outPtr(1), outPtr(3)),
	SysSend:        efault(SysSend, "send", inPtr(1)),
	SysSendmsg:     efault(SysSendmsg, "sendmsg", inPtr(1)),
	SysEpollCreate: {Num: SysEpollCreate, Name: "epoll_create"},
	SysEpollCtl:    efault(SysEpollCtl, "epoll_ctl", inPtr(3)),
	SysEpollWait:   efault(SysEpollWait, "epoll_wait", outPtr(1)),
	SysChmod:       efault(SysChmod, "chmod", inPtr(0)),
	SysMkdir:       efault(SysMkdir, "mkdir", inPtr(0)),
	SysUnlink:      efault(SysUnlink, "unlink", inPtr(0)),
	SysSymlink:     efault(SysSymlink, "symlink", inPtr(0), inPtr(1)),
	SysSigaction:   {Num: SysSigaction, Name: "sigaction"},
	SysSpawnThread: {Num: SysSpawnThread, Name: "spawn_thread"},
	SysNanosleep:   {Num: SysNanosleep, Name: "nanosleep"},
	SysAccess:      efault(SysAccess, "access", inPtr(0)),
	SysGetpid:      {Num: SysGetpid, Name: "getpid"},
}

// Specs returns a copy of the full syscall table in syscall-number order.
// The EFAULT-capable subset matches the 13 rows of the paper's Table I.
func Specs() []Spec {
	return slices.Clone(table[1:])
}

// SpecFor returns the spec for a syscall number.
func SpecFor(num uint64) (Spec, bool) {
	if num == 0 || num >= uint64(len(table)) {
		return Spec{}, false
	}
	return table[num], true
}

// Event is the record handed to a syscall observer at invocation time.
type Event struct {
	Thread *vm.Thread
	Num    uint64
	Name   string
	Args   [5]uint64
	// Retry is true when a blocking syscall re-evaluates after a wakeup
	// rather than being freshly invoked by a SYSCALL instruction.
	Retry bool
}

// Observer watches syscall invocations and completions.
type Observer interface {
	// SyscallEnter fires when a SYSCALL instruction enters the kernel.
	SyscallEnter(ev Event)
	// SyscallExit fires when the call completes with ret in R0.
	SyscallExit(ev Event, ret uint64)
}

// Kernel implements vm.SyscallHandler for one process.
type Kernel struct {
	proc *vm.Process

	fds map[int]fileLike

	listeners map[uint64]*listener // port → listener
	conns     []*serverConn
	nextConn  int

	fs map[string][]byte

	observer Observer
	plan     *faultinject.Plan

	counts Counts
	// efaultSec is the virtual second of the latest -EFAULT return, and
	// efaultNow counts that second's returns not yet folded into
	// counts.EFAULTBuckets, so a return costs no map write.
	efaultSec uint64
	efaultNow uint64

	// sleepers are threads blocked in the kernel; any external event
	// wakes them all and their continuations re-evaluate readiness.
	sleepers map[int]*vm.Thread
}

// Counts aggregates kernel-level dispatch counters for the observability
// layer. Totals are deterministic for a fixed seed and workload.
type Counts struct {
	// Dispatched counts SYSCALL instructions entering the kernel.
	Dispatched uint64
	// EFAULTReturns counts completions that returned -EFAULT, i.e. the
	// crash-resistant "bad pointer survived" signal from §IV-A.
	EFAULTReturns uint64
	// Injected counts syscalls answered with a plan-injected error
	// (-EAGAIN transient, -EIO permanent) instead of running.
	Injected uint64
	// EFAULTBuckets is the process's fault-event time series: -EFAULT
	// completions bucketed by the virtual second of the process clock
	// (Clock / TicksPerSecond) at completion time. The kernel has no wall
	// clock, so the series — like every count here — is deterministic for
	// a fixed seed and workload.
	EFAULTBuckets map[uint64]uint64 `json:"efault_buckets,omitempty"`
}

// Counts returns the kernel's dispatch counters so far. The bucket series
// is copied, so callers may retain the result across further dispatches.
func (k *Kernel) Counts() Counts {
	k.foldEFAULTs()
	c := k.counts
	c.EFAULTBuckets = maps.Clone(c.EFAULTBuckets)
	return c
}

// foldEFAULTs adds the -EFAULT returns counted for efaultSec to its bucket.
func (k *Kernel) foldEFAULTs() {
	if k.efaultNow == 0 {
		return
	}
	if k.counts.EFAULTBuckets == nil {
		k.counts.EFAULTBuckets = make(map[uint64]uint64)
	}
	k.counts.EFAULTBuckets[k.efaultSec] += k.efaultNow
	k.efaultNow = 0
}

// fileLike is anything installable in the fd table.
type fileLike interface {
	kind() string
}

// New creates a kernel. Call Attach to bind it to a process.
func New() *Kernel {
	return &Kernel{
		fds:       make(map[int]fileLike),
		listeners: make(map[uint64]*listener),
		fs:        make(map[string][]byte),
		sleepers:  make(map[int]*vm.Thread),
	}
}

// Attach wires the kernel into the process as its syscall handler.
func (k *Kernel) Attach(p *vm.Process) {
	k.proc = p
	p.Syscalls = k
}

// SetObserver installs a syscall observer.
func (k *Kernel) SetObserver(o Observer) { k.observer = o }

// SetFaultPlan attaches a fault plan; selected syscalls then fail with
// -EAGAIN (transient) or -EIO (permanent) before their body runs, keyed by
// the kernel's dispatch index. Injection deliberately never uses -EFAULT:
// that return is the pipeline's discovery signal and must stay attributable
// to real pointer validation.
func (k *Kernel) SetFaultPlan(p *faultinject.Plan) { k.plan = p }

// AddFile installs a file in the in-memory filesystem.
func (k *Kernel) AddFile(path string, contents []byte) {
	k.fs[path] = append([]byte(nil), contents...)
}

// FileContents returns a filesystem file's contents.
func (k *Kernel) FileContents(path string) ([]byte, bool) {
	c, ok := k.fs[path]
	return c, ok
}

var _ vm.SyscallHandler = (*Kernel)(nil)

// Syscall dispatches one SYSCALL instruction.
func (k *Kernel) Syscall(p *vm.Process, t *vm.Thread) {
	num := t.Reg(0)
	k.counts.Dispatched++
	// ev is built in place: a composite literal would be built aside
	// and copied in.
	var ev Event
	ev.Thread, ev.Num = t, num
	copy(ev.Args[:], t.Regs[1:6])
	if num < uint64(len(table)) {
		ev.Name = table[num].Name
	}
	if k.observer != nil {
		k.observer.SyscallEnter(ev)
	}
	// Process teardown is not interceptable; everything else may draw an
	// injected error keyed by the dispatch index (unique per kernel, so
	// decisions replay identically for a fixed seed and workload).
	if k.plan != nil && num != SysExit && num != SysExitThread {
		if f := k.plan.FaultAt(faultinject.SiteKernelSyscall, k.counts.Dispatched); f != nil {
			k.counts.Injected++
			errno := uint64(EIO)
			if f.Transient() {
				errno = EAGAIN
			}
			k.complete(t, &ev, errRet(errno))
			return
		}
	}
	k.invoke(t, &ev)
}

// complete finishes a syscall, reporting to the observer. Like every
// syscall body, it only reads ev; the observer gets a copy.
func (k *Kernel) complete(t *vm.Thread, ev *Event, ret uint64) {
	if int64(ret) == -int64(EFAULT) {
		k.counts.EFAULTReturns++
		if sec := k.proc.Clock / TicksPerSecond; sec != k.efaultSec {
			k.foldEFAULTs()
			k.efaultSec = sec
		}
		k.efaultNow++
	}
	t.SetReg(0, ret)
	if k.proc.Flow != nil {
		// The return value is kernel-produced: clear R0's taint and
		// provenance.
		k.proc.Flow.SetRegImm(t.ID, 0)
	}
	if k.observer != nil {
		k.observer.SyscallExit(*ev, ret)
	}
}

// invoke runs (or re-runs, after a wakeup) the syscall body.
func (k *Kernel) invoke(t *vm.Thread, ev *Event) {
	p := k.proc
	args := ev.Args
	switch ev.Num {
	case SysExit:
		p.Exit(args[0])
	case SysExitThread:
		t.State = vm.ThreadDone
	case SysGetpid:
		k.complete(t, ev, 1)
	case SysSigaction:
		sig := int(args[0])
		if sig <= 0 || sig > 64 {
			k.complete(t, ev, errRet(EINVAL))
			return
		}
		p.SetSignalHandler(sig, args[1])
		k.complete(t, ev, 0)
	case SysSpawnThread:
		nt, err := p.StartThread("worker", args[0], args[1])
		if err != nil {
			k.complete(t, ev, errRet(EAGAIN))
			return
		}
		k.complete(t, ev, uint64(nt.ID))
	case SysNanosleep:
		// The continuation keeps a copy: ev lives in Syscall's frame.
		e := *ev
		k.block(t, p.Clock+args[0], func(bool) {
			k.complete(t, &e, 0)
		})

	case SysOpen:
		k.sysOpen(t, ev)
	case SysClose:
		k.sysClose(t, ev)
	case SysRead:
		k.sysRead(t, ev)
	case SysWrite:
		k.sysWrite(t, ev)
	case SysAccess, SysChmod, SysMkdir, SysUnlink:
		k.sysPathOp(t, ev)
	case SysSymlink:
		k.sysSymlink(t, ev)

	case SysSocket:
		k.sysSocket(t, ev)
	case SysBind:
		k.sysBind(t, ev)
	case SysListen:
		k.sysListen(t, ev)
	case SysAccept:
		k.sysAccept(t, ev)
	case SysConnect:
		k.sysConnect(t, ev)
	case SysRecv, SysRecvfrom:
		k.sysRecv(t, ev)
	case SysSend:
		k.sysSend(t, ev)
	case SysSendmsg:
		k.sysSendmsg(t, ev)

	case SysEpollCreate:
		k.sysEpollCreate(t, ev)
	case SysEpollCtl:
		k.sysEpollCtl(t, ev)
	case SysEpollWait:
		k.sysEpollWait(t, ev)

	default:
		k.complete(t, ev, errRet(EINVAL))
	}
}

// block parks a thread in the kernel; external events (wakeAll) or the
// timeout resume it.
func (k *Kernel) block(t *vm.Thread, wakeAt uint64, resume func(timedOut bool)) {
	if t.InFilter() {
		// Filters must not block; fail the operation immediately.
		resume(true)
		return
	}
	k.sleepers[t.ID] = t
	t.Block(wakeAt, func(timedOut bool) {
		delete(k.sleepers, t.ID)
		resume(timedOut)
	})
}

// retry re-parks a thread with the same continuation semantics as the
// original call; used by blocking syscalls after a spurious wakeup.
func (k *Kernel) retry(t *vm.Thread, ev *Event, wakeAt uint64) {
	if t.InFilter() {
		// Exception dispatch must not block; re-invoking would recurse
		// (the block helper resumes in-filter threads synchronously).
		// Fail the call the way a nonblocking descriptor would.
		k.complete(t, ev, errRet(EAGAIN))
		return
	}
	// The continuation keeps a copy: ev lives in Syscall's frame.
	e := *ev
	e.Retry = true
	k.block(t, wakeAt, func(timedOut bool) {
		if timedOut && wakeAt != 0 {
			// Let the specific syscall decide what a timeout
			// means by re-invoking; epoll_wait handles it.
			k.invokeTimedOut(t, &e)
			return
		}
		k.invoke(t, &e)
	})
}

// invokeTimedOut completes calls whose wait deadline expired.
func (k *Kernel) invokeTimedOut(t *vm.Thread, ev *Event) {
	switch ev.Num {
	case SysEpollWait:
		k.complete(t, ev, 0) // no events
	default:
		k.invoke(t, ev)
	}
}

// wakeAll resumes every kernel sleeper so continuations can re-check
// readiness; called whenever the external monitor changes socket state.
func (k *Kernel) wakeAll() {
	// Collect first: waking mutates the map.
	ids := make([]int, 0, len(k.sleepers))
	for id := range k.sleepers {
		ids = append(ids, id)
	}
	// Deterministic order.
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	for _, id := range ids {
		if t, ok := k.sleepers[id]; ok {
			t.Wake(false)
		}
	}
}

// installFD assigns the lowest free descriptor ≥ 3, matching POSIX fd
// allocation. Reuse keeps long-running servers' fd-indexed structures
// bounded, exactly as on a real system.
func (k *Kernel) installFD(f fileLike) int {
	fd := 3
	for {
		if _, used := k.fds[fd]; !used {
			break
		}
		fd++
	}
	k.fds[fd] = f
	return fd
}

// readPath copies a NUL-terminated string (max 255 bytes) from user memory.
// A nil error with ok=false means the pointer was invalid (EFAULT).
func (k *Kernel) readPath(addr uint64) (string, bool) {
	var out []byte
	for i := 0; i < 256; i++ {
		if !k.proc.AS.Accessible(addr+uint64(i), 1, mem.AccessRead) {
			return "", false
		}
		b, _ := k.proc.AS.ReadUint(addr+uint64(i), 1) // checked above
		if b == 0 {
			return string(out), true
		}
		out = append(out, byte(b))
	}
	return string(out), true
}

func (k *Kernel) String() string {
	return fmt.Sprintf("kernel{fds=%d conns=%d}", len(k.fds), len(k.conns))
}
