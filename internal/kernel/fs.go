package kernel

import (
	"crashresist/internal/mem"
	"crashresist/internal/vm"
)

// fsFile is an open handle into the in-memory filesystem.
type fsFile struct {
	path string
	pos  int
}

func (f *fsFile) kind() string { return "file" }

// sysOpen opens (or creates) a filesystem file. The path pointer is
// EFAULT-checked.
func (k *Kernel) sysOpen(t *vm.Thread, ev *Event) {
	path, ok := k.readPath(ev.Args[0])
	if !ok {
		k.complete(t, ev, errRet(EFAULT))
		return
	}
	const flagCreate = 1
	if _, exists := k.fs[path]; !exists {
		if ev.Args[1]&flagCreate == 0 {
			k.complete(t, ev, errRet(ENOENT))
			return
		}
		k.fs[path] = nil
	}
	fd := k.installFD(&fsFile{path: path})
	k.complete(t, ev, uint64(fd))
}

// sysRead handles read() for both files and sockets: read(fd, buf, n).
func (k *Kernel) sysRead(t *vm.Thread, ev *Event) {
	switch f := k.fds[int(ev.Args[0])].(type) {
	case *serverConn:
		k.streamRead(t, ev, f, ev.Args[1], ev.Args[2])
	case *fsFile:
		contents := k.fs[f.path]
		if f.pos >= len(contents) {
			k.complete(t, ev, 0)
			return
		}
		// Clamp in uint64: a count past the bytes left, however large,
		// reads what is left.
		take := len(contents) - f.pos
		if ev.Args[2] < uint64(take) {
			take = int(ev.Args[2])
		}
		if !k.proc.AS.Accessible(ev.Args[1], uint64(take), mem.AccessWrite) {
			k.complete(t, ev, errRet(EFAULT))
			return
		}
		_ = k.proc.AS.Write(ev.Args[1], contents[f.pos:f.pos+take]) // checked above
		f.pos += take
		k.complete(t, ev, uint64(take))
	default:
		k.complete(t, ev, errRet(EBADF))
	}
}

// sysWrite handles write() for both files and sockets.
func (k *Kernel) sysWrite(t *vm.Thread, ev *Event) {
	switch f := k.fds[int(ev.Args[0])].(type) {
	case *serverConn:
		k.streamWrite(t, ev, f, ev.Args[1], ev.Args[2])
	case *fsFile:
		if !k.proc.AS.Accessible(ev.Args[1], ev.Args[2], mem.AccessRead) {
			k.complete(t, ev, errRet(EFAULT))
			return
		}
		data, _ := k.proc.AS.Read(ev.Args[1], ev.Args[2]) // checked above
		contents := k.fs[f.path]
		for len(contents) < f.pos {
			contents = append(contents, 0)
		}
		contents = append(contents[:f.pos], data...)
		k.fs[f.path] = contents
		f.pos += len(data)
		k.complete(t, ev, ev.Args[2])
	default:
		k.complete(t, ev, errRet(EBADF))
	}
}

// sysPathOp implements access/chmod/mkdir/unlink: all validate the path
// pointer (EFAULT) and then act trivially on the in-memory filesystem.
func (k *Kernel) sysPathOp(t *vm.Thread, ev *Event) {
	path, ok := k.readPath(ev.Args[0])
	if !ok {
		k.complete(t, ev, errRet(EFAULT))
		return
	}
	switch ev.Num {
	case SysAccess, SysChmod:
		if _, exists := k.fs[path]; !exists {
			k.complete(t, ev, errRet(ENOENT))
			return
		}
		k.complete(t, ev, 0)
	case SysMkdir:
		// Directories are implicit; report success.
		k.complete(t, ev, 0)
	case SysUnlink:
		if _, exists := k.fs[path]; !exists {
			k.complete(t, ev, errRet(ENOENT))
			return
		}
		delete(k.fs, path)
		k.complete(t, ev, 0)
	default:
		k.complete(t, ev, errRet(EINVAL))
	}
}

// sysSymlink validates both path pointers, then records the link as a copy.
func (k *Kernel) sysSymlink(t *vm.Thread, ev *Event) {
	target, ok := k.readPath(ev.Args[0])
	if !ok {
		k.complete(t, ev, errRet(EFAULT))
		return
	}
	linkPath, ok := k.readPath(ev.Args[1])
	if !ok {
		k.complete(t, ev, errRet(EFAULT))
		return
	}
	contents, exists := k.fs[target]
	if !exists {
		contents = nil
	}
	k.fs[linkPath] = append([]byte(nil), contents...)
	k.complete(t, ev, 0)
}
