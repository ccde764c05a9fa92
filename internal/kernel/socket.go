package kernel

import (
	"fmt"

	"crashresist/internal/mem"
	"crashresist/internal/vm"
)

// listener is a bound, listening socket.
type listener struct {
	port    uint64
	backlog []*serverConn
}

func (l *listener) kind() string { return "listener" }

// socketFD is an unbound/unconnected socket.
type socketFD struct {
	bound bool
	port  uint64
}

func (s *socketFD) kind() string { return "socket" }

// serverConn is the server side of a simulated TCP stream; the test monitor
// holds the matching ClientConn.
type serverConn struct {
	id    int
	label uint8 // taint label for bytes received from this client

	in  []byte // client → server, pending
	out []byte // server → client, pending

	closedByClient bool
	closedByServer bool
}

func (c *serverConn) kind() string { return "conn" }

func (c *serverConn) readable() bool { return len(c.in) > 0 || c.closedByClient }

func (k *Kernel) sysSocket(t *vm.Thread, ev *Event) {
	fd := k.installFD(&socketFD{})
	k.complete(t, ev, uint64(fd))
}

func (k *Kernel) sysBind(t *vm.Thread, ev *Event) {
	s, ok := k.fds[int(ev.Args[0])].(*socketFD)
	if !ok {
		k.complete(t, ev, errRet(EBADF))
		return
	}
	s.bound = true
	s.port = ev.Args[1]
	k.complete(t, ev, 0)
}

func (k *Kernel) sysListen(t *vm.Thread, ev *Event) {
	s, ok := k.fds[int(ev.Args[0])].(*socketFD)
	if !ok || !s.bound {
		k.complete(t, ev, errRet(EBADF))
		return
	}
	l := &listener{port: s.port}
	k.fds[int(ev.Args[0])] = l
	k.listeners[s.port] = l
	k.complete(t, ev, 0)
}

// sysAccept accepts a pending connection. A non-zero second argument makes
// the call nonblocking: it returns -EAGAIN when the backlog is empty,
// matching accept on an O_NONBLOCK listener.
func (k *Kernel) sysAccept(t *vm.Thread, ev *Event) {
	l, ok := k.fds[int(ev.Args[0])].(*listener)
	if !ok {
		k.complete(t, ev, errRet(EBADF))
		return
	}
	if len(l.backlog) == 0 {
		if ev.Args[1] != 0 {
			k.complete(t, ev, errRet(EAGAIN))
			return
		}
		k.retry(t, ev, 0)
		return
	}
	conn := l.backlog[0]
	l.backlog = l.backlog[1:]
	fd := k.installFD(conn)
	k.complete(t, ev, uint64(fd))
}

// sysConnect models an outbound connection: it validates the sockaddr
// pointer (EFAULT-capable) and always reports connection refused, since the
// simulated network has no outbound peers. The EFAULT path is what matters
// for the discovery pipeline.
func (k *Kernel) sysConnect(t *vm.Thread, ev *Event) {
	if _, ok := k.fds[int(ev.Args[0])].(*socketFD); !ok {
		k.complete(t, ev, errRet(EBADF))
		return
	}
	if !k.proc.AS.Accessible(ev.Args[1], 8, mem.AccessRead) {
		k.complete(t, ev, errRet(EFAULT))
		return
	}
	k.complete(t, ev, errRet(EINVAL))
}

func (k *Kernel) sysRecv(t *vm.Thread, ev *Event) {
	conn, ok := k.fds[int(ev.Args[0])].(*serverConn)
	if !ok {
		k.complete(t, ev, errRet(EBADF))
		return
	}
	buf, n := ev.Args[1], ev.Args[2]
	// recvfrom also validates its (optional) source-address out-pointer.
	if ev.Num == SysRecvfrom && ev.Args[3] != 0 {
		if !k.proc.AS.Accessible(ev.Args[3], 8, mem.AccessWrite) {
			k.complete(t, ev, errRet(EFAULT))
			return
		}
	}
	k.streamRead(t, ev, conn, buf, n)
}

func (k *Kernel) sysSend(t *vm.Thread, ev *Event) {
	conn, ok := k.fds[int(ev.Args[0])].(*serverConn)
	if !ok {
		k.complete(t, ev, errRet(EBADF))
		return
	}
	k.streamWrite(t, ev, conn, ev.Args[1], ev.Args[2])
}

// sysSendmsg reads a struct msghdr {buf u64, len u64} through the
// EFAULT-checked header pointer, then sends like send().
func (k *Kernel) sysSendmsg(t *vm.Thread, ev *Event) {
	conn, ok := k.fds[int(ev.Args[0])].(*serverConn)
	if !ok {
		k.complete(t, ev, errRet(EBADF))
		return
	}
	hdr := ev.Args[1]
	if !k.proc.AS.Accessible(hdr, 8, mem.AccessRead) || !k.proc.AS.Accessible(hdr+8, 8, mem.AccessRead) {
		k.complete(t, ev, errRet(EFAULT))
		return
	}
	// Both ranges were just checked, so neither read fails.
	buf, _ := k.proc.AS.ReadUint(hdr, 8)
	n, _ := k.proc.AS.ReadUint(hdr+8, 8)
	k.streamWrite(t, ev, conn, buf, n)
}

// streamRead copies pending client bytes into the user buffer, blocking when
// nothing is pending. The user pointer is validated on every attempt — a
// pointer corrupted while the thread was blocked produces EFAULT, not a
// fault.
func (k *Kernel) streamRead(t *vm.Thread, ev *Event, conn *serverConn, buf, n uint64) {
	if n == 0 {
		k.complete(t, ev, 0)
		return
	}
	if !k.proc.AS.Accessible(buf, 1, mem.AccessWrite) {
		k.complete(t, ev, errRet(EFAULT))
		return
	}
	if len(conn.in) == 0 {
		if conn.closedByClient {
			k.complete(t, ev, 0) // EOF
			return
		}
		// recv honours a MSG_DONTWAIT-style flag in its fourth
		// argument (recvfrom's fourth argument is the source-address
		// out-pointer instead): return -EAGAIN rather than blocking.
		if ev.Num == SysRecv && ev.Args[3] != 0 {
			k.complete(t, ev, errRet(EAGAIN))
			return
		}
		k.retry(t, ev, 0)
		return
	}
	take := len(conn.in)
	if n < uint64(take) {
		take = int(n)
	}
	// Validate the full destination range; partial writes to user memory
	// never happen (matching copy_to_user all-or-nothing on page faults).
	if !k.proc.AS.Accessible(buf, uint64(take), mem.AccessWrite) {
		k.complete(t, ev, errRet(EFAULT))
		return
	}
	data := conn.in[:take]
	conn.in = conn.in[take:]
	if err := k.proc.AS.Write(buf, data); err != nil {
		k.complete(t, ev, errRet(EFAULT))
		return
	}
	if k.proc.Flow != nil {
		// Bytes from the network are attacker input: taint them.
		k.proc.Flow.MarkMem(conn.label, buf, take)
	}
	k.complete(t, ev, uint64(take))
}

// streamWrite copies user bytes to the client side.
func (k *Kernel) streamWrite(t *vm.Thread, ev *Event, conn *serverConn, buf, n uint64) {
	if conn.closedByServer || conn.closedByClient {
		k.complete(t, ev, errRet(EBADF))
		return
	}
	if !k.proc.AS.Accessible(buf, n, mem.AccessRead) {
		k.complete(t, ev, errRet(EFAULT))
		return
	}
	data, _ := k.proc.AS.Read(buf, n) // checked above
	conn.out = append(conn.out, data...)
	k.complete(t, ev, n)
}

func (k *Kernel) sysClose(t *vm.Thread, ev *Event) {
	fd := int(ev.Args[0])
	f, ok := k.fds[fd]
	if !ok {
		k.complete(t, ev, errRet(EBADF))
		return
	}
	if conn, ok := f.(*serverConn); ok {
		conn.closedByServer = true
	}
	delete(k.fds, fd)
	// Deregister from any epoll sets.
	for _, e := range k.epolls() {
		delete(e.interest, fd)
	}
	k.complete(t, ev, 0)
}

// --- monitor-facing client API ---

// ClientConn is the test monitor's handle on one simulated TCP connection.
type ClientConn struct {
	k *Kernel
	c *serverConn
}

// Connect opens a client connection to a listening port, delivering it to
// the server's accept backlog and waking any kernel sleepers.
func (k *Kernel) Connect(port uint64) (*ClientConn, error) {
	l, ok := k.listeners[port]
	if !ok {
		return nil, fmt.Errorf("connect: no listener on port %d", port)
	}
	k.nextConn++
	conn := &serverConn{
		id:    k.nextConn,
		label: uint8(1 + (k.nextConn-1)%63),
	}
	k.conns = append(k.conns, conn)
	l.backlog = append(l.backlog, conn)
	k.wakeAll()
	return &ClientConn{k: k, c: conn}, nil
}

// Send delivers bytes from the client to the server.
func (cc *ClientConn) Send(data []byte) {
	cc.c.in = append(cc.c.in, data...)
	cc.k.wakeAll()
}

// Recv drains everything the server has written to this connection.
func (cc *ClientConn) Recv() []byte {
	out := cc.c.out
	cc.c.out = nil
	return out
}

// Close closes the client end; server reads observe EOF.
func (cc *ClientConn) Close() {
	cc.c.closedByClient = true
	cc.k.wakeAll()
}

// ClosedByServer reports whether the server closed this connection.
func (cc *ClientConn) ClosedByServer() bool { return cc.c.closedByServer }

// Label returns the taint label the kernel assigns to this connection's
// bytes.
func (cc *ClientConn) Label() uint8 { return cc.c.label }
