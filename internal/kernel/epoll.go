package kernel

import (
	"math"
	"sort"

	"crashresist/internal/mem"
	"crashresist/internal/vm"
)

// epollFD is an epoll instance.
type epollFD struct {
	interest map[int]epollReg
}

type epollReg struct {
	events uint32
	data   uint64
}

func (e *epollFD) kind() string { return "epoll" }

func (k *Kernel) epolls() []*epollFD {
	var out []*epollFD
	for _, f := range k.fds {
		if e, ok := f.(*epollFD); ok {
			out = append(out, e)
		}
	}
	return out
}

func (k *Kernel) sysEpollCreate(t *vm.Thread, ev *Event) {
	fd := k.installFD(&epollFD{interest: make(map[int]epollReg)})
	k.complete(t, ev, uint64(fd))
}

// sysEpollCtl registers interest: args are (epfd, op, fd, eventPtr). The
// event struct is read through an EFAULT-checked pointer.
func (k *Kernel) sysEpollCtl(t *vm.Thread, ev *Event) {
	e, ok := k.fds[int(ev.Args[0])].(*epollFD)
	if !ok {
		k.complete(t, ev, errRet(EBADF))
		return
	}
	op, fd := int(ev.Args[1]), int(ev.Args[2])
	switch op {
	case EpollCtlDel:
		delete(e.interest, fd)
		k.complete(t, ev, 0)
		return
	case EpollCtlAdd, EpollCtlMod:
		evp := ev.Args[3]
		if !k.proc.AS.Accessible(evp, 4, mem.AccessRead) || !k.proc.AS.Accessible(evp+8, 8, mem.AccessRead) {
			k.complete(t, ev, errRet(EFAULT))
			return
		}
		// Both ranges were just checked, so neither read fails.
		events, _ := k.proc.AS.ReadUint(evp, 4)
		data, _ := k.proc.AS.ReadUint(evp+8, 8)
		if _, exists := k.fds[fd]; !exists {
			k.complete(t, ev, errRet(EBADF))
			return
		}
		e.interest[fd] = epollReg{events: uint32(events), data: data}
		k.complete(t, ev, 0)
		return
	default:
		k.complete(t, ev, errRet(EINVAL))
	}
}

// sysEpollWait: args are (epfd, eventsPtr, maxevents, timeoutTicks).
// timeout 0 = poll, ^0 = infinite. The events output pointer is validated on
// every attempt; a pointer corrupted to an unmapped address produces an
// immediate -EFAULT without blocking — the tight failing loop the Cherokee
// PoC (§VI-D) turns into a timing side channel.
func (k *Kernel) sysEpollWait(t *vm.Thread, ev *Event) {
	e, ok := k.fds[int(ev.Args[0])].(*epollFD)
	if !ok {
		k.complete(t, ev, errRet(EBADF))
		return
	}
	eventsPtr, maxEvents := ev.Args[1], ev.Args[2]
	// Linux's EP_MAX_EVENTS bound; it also keeps the byte length of the
	// events buffer from wrapping past zero.
	if maxEvents == 0 || maxEvents > math.MaxInt32/EpollEventSize {
		k.complete(t, ev, errRet(EINVAL))
		return
	}
	if !k.proc.AS.Accessible(eventsPtr, maxEvents*EpollEventSize, mem.AccessWrite) {
		k.complete(t, ev, errRet(EFAULT))
		return
	}

	ready := k.readyFDs(e, int(maxEvents))
	if len(ready) == 0 {
		timeout := ev.Args[3]
		if timeout == 0 {
			k.complete(t, ev, 0)
			return
		}
		wakeAt := uint64(0) // infinite
		if timeout != ^uint64(0) {
			wakeAt = k.proc.Clock + timeout
		}
		k.retry(t, ev, wakeAt)
		return
	}

	for i, r := range ready {
		base := eventsPtr + uint64(i)*EpollEventSize
		if err := k.proc.AS.WriteUint(base, 4, uint64(r.events)); err != nil {
			k.complete(t, ev, errRet(EFAULT))
			return
		}
		if err := k.proc.AS.WriteUint(base+8, 8, r.data); err != nil {
			k.complete(t, ev, errRet(EFAULT))
			return
		}
	}
	k.complete(t, ev, uint64(len(ready)))
}

type readyEvent struct {
	fd     int
	events uint32
	data   uint64
}

// readyFDs evaluates readiness for every registered descriptor, in
// deterministic fd order.
func (k *Kernel) readyFDs(e *epollFD, max int) []readyEvent {
	fds := make([]int, 0, len(e.interest))
	for fd := range e.interest {
		fds = append(fds, fd)
	}
	sort.Ints(fds)

	var out []readyEvent
	for _, fd := range fds {
		if len(out) >= max {
			break
		}
		reg := e.interest[fd]
		f, ok := k.fds[fd]
		if !ok {
			continue
		}
		var events uint32
		switch obj := f.(type) {
		case *listener:
			if len(obj.backlog) > 0 {
				events |= EpollIn
			}
		case *serverConn:
			if obj.readable() {
				events |= EpollIn
			}
			if obj.closedByClient {
				events |= EpollHup
			}
		}
		events &= reg.events | EpollHup
		if events != 0 {
			out = append(out, readyEvent{fd: fd, events: events, data: reg.data})
		}
	}
	return out
}
