package mem

import (
	"bytes"
	"errors"
	"testing"

	"crashresist/internal/isa"
)

// The fuzzed window: fuzzPages pages at fuzzBase. Data accesses also reach
// the unmapped page on either side, and the last page of the address space.
const (
	fuzzBase  = 0x40000
	fuzzPages = 6
)

// flatSpace is the reference model for AddressSpace over the window: one
// byte array and one permission array, no page structs. Every range is
// walked a byte at a time, so a fault names the first byte that fails.
type flatSpace struct {
	perm   [fuzzPages]Perm
	mapped [fuzzPages]bool
	mem    [fuzzPages * PageSize]byte
}

var errRefRejected = errors.New("rejected")

// windowPage returns the window index of addr's page; no page outside the
// window is ever mapped.
func windowPage(addr uint64) (int, bool) {
	if addr < fuzzBase || addr >= fuzzBase+fuzzPages*PageSize {
		return 0, false
	}
	return int((addr - fuzzBase) / PageSize), true
}

// pages returns the window indexes of a page-granular range that
// progReader.pageRange decoded, or false when it is malformed.
func pages(addr, length uint64) (first, end int, ok bool) {
	if addr%PageSize != 0 || length%PageSize != 0 {
		return 0, 0, false
	}
	first, _ = windowPage(addr)
	return first, first + int(length/PageSize), true
}

func (f *flatSpace) mapRange(addr, length uint64, perm Perm) error {
	first, end, ok := pages(addr, length)
	if !ok || first == end {
		return errRefRejected
	}
	for i := first; i < end; i++ {
		if f.mapped[i] {
			return errRefRejected
		}
	}
	for i := first; i < end; i++ {
		f.perm[i], f.mapped[i] = perm, true
		clear(f.mem[i*PageSize : (i+1)*PageSize])
	}
	return nil
}

func (f *flatSpace) unmap(addr, length uint64) error {
	first, end, ok := pages(addr, length)
	if !ok {
		return errRefRejected
	}
	for i := first; i < end; i++ {
		f.perm[i], f.mapped[i] = 0, false
	}
	return nil
}

func (f *flatSpace) protect(addr, length uint64, perm Perm) error {
	first, end, ok := pages(addr, length)
	if !ok {
		return errRefRejected
	}
	for i := first; i < end; i++ {
		if !f.mapped[i] {
			return &Fault{Addr: fuzzBase + uint64(i)*PageSize, Access: AccessWrite, Unmapped: true}
		}
	}
	for i := first; i < end; i++ {
		f.perm[i] = perm
	}
	return nil
}

// check faults at the first byte of the range that is unmapped or, when
// need is not zero, lacks need. A range that wraps past the top of the
// address space faults at addr.
func (f *flatSpace) check(addr, length uint64, access Access, need Perm) *Fault {
	if length > 0 && addr+length-1 < addr {
		return &Fault{Addr: addr, Access: access, Unmapped: true}
	}
	for a := addr; a-addr < length; a++ {
		i, in := windowPage(a)
		if !in || !f.mapped[i] {
			return &Fault{Addr: a, Access: access, Unmapped: true}
		}
		if f.perm[i]&need != need {
			return &Fault{Addr: a, Access: access}
		}
	}
	return nil
}

func (f *flatSpace) read(addr, length uint64) ([]byte, *Fault) {
	if flt := f.check(addr, length, AccessRead, PermRead); flt != nil {
		return nil, flt
	}
	if length == 0 {
		return nil, nil
	}
	return bytes.Clone(f.mem[addr-fuzzBase : addr-fuzzBase+length]), nil
}

func (f *flatSpace) write(addr uint64, data []byte, need Perm) *Fault {
	if flt := f.check(addr, uint64(len(data)), AccessWrite, need); flt != nil {
		return flt
	}
	if len(data) > 0 {
		copy(f.mem[addr-fuzzBase:], data)
	}
	return nil
}

func (f *flatSpace) fetchExec(addr uint64, max int) ([]byte, *Fault) {
	if max <= 0 {
		return nil, nil
	}
	if flt := f.check(addr, 1, AccessExec, PermExec); flt != nil {
		return nil, flt
	}
	var out []byte
	for a := addr; len(out) < max && f.check(a, 1, AccessExec, PermExec) == nil; a++ {
		out = append(out, f.mem[a-fuzzBase])
	}
	return out, nil
}

// progReader decodes a fuzz input; past its end every read is zero.
type progReader struct{ b []byte }

func (r *progReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *progReader) u16() uint64 { return uint64(r.byte()) | uint64(r.byte())<<8 }

// pageRange decodes a range of up to three pages inside the window; bit 7
// of the count byte makes the length unaligned.
func (r *progReader) pageRange() (addr, length uint64) {
	addr = fuzzBase + uint64(r.byte()%(fuzzPages-2))*PageSize
	n := r.byte()
	length = uint64(n%4) * PageSize
	if n&0x80 != 0 {
		length++
	}
	return addr, length
}

// addr decodes a data address: in the window or the page on either side
// of it, or with the op's bit 7 set, in the last page of the address space.
func (r *progReader) addr(top bool) uint64 {
	pg, off := uint64(r.byte()), r.u16()%PageSize
	if top {
		return ^uint64(0) - (PageSize - 1) + off
	}
	return fuzzBase - PageSize + pg%(fuzzPages+2)*PageSize + off
}

func (r *progReader) data() []byte {
	n, fill := r.u16()%(2*PageSize+1), r.byte()
	out := make([]byte, n)
	for i := range out {
		out[i] = fill + byte(i*7)
	}
	return out
}

// sameFault reports whether err is exactly want: both nil, or a *Fault
// equal to it.
func sameFault(err error, want *Fault) bool {
	var f *Fault
	if !errors.As(err, &f) {
		return err == nil && want == nil
	}
	return want != nil && *f == *want
}

// checkAccessible fails t unless Accessible agrees with Check on the range
// for every access kind.
func checkAccessible(t *testing.T, step int, as *AddressSpace, addr, length uint64) {
	t.Helper()
	for _, access := range []Access{AccessRead, AccessWrite, AccessExec} {
		if got, want := as.Accessible(addr, length, access), as.Check(addr, length, access) == nil; got != want {
			t.Fatalf("step %d Accessible(%#x, %d, %v) = %v, Check says %v", step, addr, length, access, got, want)
		}
	}
}

// attachSwept maps the mapped pages of a page range as views of their
// current bytes, with the tables a sweep of those bytes gives, as bin.Load
// does for text.
func attachSwept(as *AddressSpace, addr, length uint64) error {
	var text [][PageSize]byte
	var code []byte
	for a := addr; a < addr+length; a += PageSize {
		p, ok := as.pages[a/PageSize]
		if !ok {
			break
		}
		text = append(text, *p.bytes())
		code = append(code, p.bytes()[:]...)
	}
	return as.AttachText(addr, text, isa.SweepPages(code, PageSize))
}

// FuzzAddressSpace decodes its input into Map, Unmap, Protect, Write,
// WriteForce, Read, ReadUint and FetchExec calls over a few pages and makes
// each on an AddressSpace and on flatSpace. Returned bytes and *Fault values
// must be equal after every call, and every page's permission and bytes
// after the last one. Ranges straddle page boundaries and unmap-then-remap
// reuses addresses, so pages whose bytes were never allocated meet pages
// that were. Accessible must agree with Check on every decoded range.
//
// A Protect with bit 6 of its opcode set then maps the range's pages as
// views of their current bytes with predecoded tables of them (AttachText).
// Every FetchExec that Decoded answers must decode to the same instruction
// Decoded returns, so a table that outlives a write to its page, or is
// served from a page without execute permission, fails.
//
// The first op with bits 3-5 of its opcode set forks the address space
// (and its reference) before it runs. From then on, an op with bit 5 set
// runs on the fork and any other on the original. Each copy must match its
// own reference, so a write in one that shows in the other fails.
//
// An op is an opcode byte (low three bits: the call; bit 7: a data access
// in the last page of the address space) and its operands: a page byte, a
// count byte and a permission byte for page ranges; a page byte and a
// little-endian u16 offset for data addresses, then a u16 length and a fill
// byte for writes, a u16 length for Read, a size index for ReadUint and a
// byte max+8 for FetchExec. The seed corpus is testdata/fuzz/FuzzAddressSpace.
func FuzzAddressSpace(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		spaces, refs := []*AddressSpace{NewAddressSpace()}, []*flatSpace{{}}
		r := &progReader{b: prog}
		for step := 0; len(r.b) > 0 && step < 64; step++ {
			op := r.byte()
			top := op&0x80 != 0
			if op&0x38 == 0x38 && len(spaces) == 1 {
				fork := *refs[0]
				spaces, refs = append(spaces, spaces[0].Fork()), append(refs, &fork)
			}
			as, ref := spaces[0], refs[0]
			if len(spaces) == 2 && op&0x20 != 0 {
				as, ref = spaces[1], refs[1]
			}
			switch op % 8 {
			case 0:
				addr, length := r.pageRange()
				checkAccessible(t, step, as, addr, length)
				perm := Perm(r.byte() % 8)
				err, want := as.Map(addr, length, perm), ref.mapRange(addr, length, perm)
				if (err == nil) != (want == nil) {
					t.Fatalf("step %d Map(%#x, %#x, %v) = %v, reference %v", step, addr, length, perm, err, want)
				}
			case 1:
				addr, length := r.pageRange()
				checkAccessible(t, step, as, addr, length)
				err, want := as.Unmap(addr, length), ref.unmap(addr, length)
				if (err == nil) != (want == nil) {
					t.Fatalf("step %d Unmap(%#x, %#x) = %v, reference %v", step, addr, length, err, want)
				}
			case 2:
				addr, length := r.pageRange()
				checkAccessible(t, step, as, addr, length)
				perm := Perm(r.byte() % 8)
				err, want := as.Protect(addr, length, perm), ref.protect(addr, length, perm)
				same := (err == nil) == (want == nil)
				if wantFault := (*Fault)(nil); errors.As(want, &wantFault) {
					same = sameFault(err, wantFault)
				}
				if !same {
					t.Fatalf("step %d Protect(%#x, %#x, %v) = %v, reference %v", step, addr, length, perm, err, want)
				}
				if op&0x40 != 0 && err == nil && length%PageSize == 0 {
					if err := attachSwept(as, addr, length); err != nil {
						t.Fatalf("step %d AttachText(%#x) after Protect: %v", step, addr, err)
					}
				}
			case 3, 4:
				addr, data := r.addr(top), r.data()
				checkAccessible(t, step, as, addr, uint64(len(data)))
				name, write, need := "Write", as.Write, PermWrite
				if op%8 == 4 {
					name, write, need = "WriteForce", as.WriteForce, 0
				}
				err, want := write(addr, data), ref.write(addr, data, need)
				if !sameFault(err, want) {
					t.Fatalf("step %d %s(%#x, %d bytes) = %v, reference %v", step, name, addr, len(data), err, want)
				}
			case 5:
				addr, length := r.addr(top), r.u16()%(2*PageSize+1)
				checkAccessible(t, step, as, addr, length)
				got, err := as.Read(addr, length)
				want, wantFault := ref.read(addr, length)
				if !sameFault(err, wantFault) || !bytes.Equal(got, want) {
					t.Fatalf("step %d Read(%#x, %d) = %x, %v; reference %x, %v", step, addr, length, got, err, want, wantFault)
				}
			case 6:
				addr, size := r.addr(top), []int{1, 2, 4, 8}[r.byte()%4]
				checkAccessible(t, step, as, addr, uint64(size))
				got, err := as.ReadUint(addr, size)
				raw, wantFault := ref.read(addr, uint64(size))
				var want uint64
				for i := len(raw) - 1; i >= 0; i-- {
					want = want<<8 | uint64(raw[i])
				}
				if !sameFault(err, wantFault) || got != want {
					t.Fatalf("step %d ReadUint(%#x, %d) = %#x, %v; reference %#x, %v", step, addr, size, got, err, want, wantFault)
				}
			case 7:
				addr, max := r.addr(top), int(r.byte())-8
				if max > 0 {
					checkAccessible(t, step, as, addr, uint64(max))
				}
				got, err := as.FetchExec(addr, max, nil)
				want, wantFault := ref.fetchExec(addr, max)
				if !sameFault(err, wantFault) || !bytes.Equal(got, want) {
					t.Fatalf("step %d FetchExec(%#x, %d) = %x, %v; reference %x, %v", step, addr, max, got, err, want, wantFault)
				}
				if ins, ok := as.Decoded(addr); ok {
					code, _ := as.FetchExec(addr, 10, nil)
					if dec, _, err := isa.Decode(code); err != nil || dec != ins {
						t.Fatalf("step %d Decoded(%#x) = %v; its bytes %x decode to %v, %v", step, addr, ins, code, dec, err)
					}
				}
			}
		}
		for k, as := range spaces {
			checkPages(t, k, as, refs[k])
		}
	})
}

// checkPages fails t unless every page of the window and of the pages on
// either side has copy k's reference permission and bytes.
func checkPages(t *testing.T, k int, as *AddressSpace, ref *flatSpace) {
	t.Helper()
	for a := uint64(fuzzBase - PageSize); a <= fuzzBase+fuzzPages*PageSize; a += PageSize {
		perm, mapped := as.PermAt(a)
		i, in := windowPage(a)
		var want Perm
		wantMapped := in && ref.mapped[i]
		if wantMapped {
			want = ref.perm[i]
		}
		if perm != want || mapped != wantMapped {
			t.Fatalf("copy %d page %#x: perm %v mapped %v, reference %v %v", k, a, perm, mapped, want, wantMapped)
		}
		if mapped && !bytes.Equal(as.pages[a/PageSize].bytes()[:], ref.mem[i*PageSize:(i+1)*PageSize]) {
			t.Fatalf("copy %d page %#x: bytes differ from the reference", k, a)
		}
	}
}
