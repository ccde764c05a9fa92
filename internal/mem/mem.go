// Package mem implements the paged virtual address space used by simulated
// processes: 4 KiB pages, per-page R/W/X permissions, precise fault reporting,
// and a seeded ASLR allocator.
//
// A page's bytes are allocated on its first write; until then it reads and
// fetches as zeros, so a mapping nobody touches (most of a thread stack)
// costs only its header.
//
// Page bytes are shared copy-on-write. AttachText maps a loaded image's
// text pages as views of bytes every process loading the image shares. A
// page's bytes are written in place only when its header says this address
// space allocated them (owned); every other write first copies them, so a
// write in one address space never shows in another. Every write reaches a
// page through one path, writePage.
//
// The page table is shared copy-on-write too. Fork hands the copy the
// source's page map and page headers as they are, and whichever of the two
// next changes a mapping or a header first copies the map and headers for
// itself (own), clearing owned in every copy; headers that are shared are
// never written. A fork that never writes, such as a fuzz probe, copies
// nothing.
//
// The page map is a Go map, read through two caches: the last two pages
// data accesses looked up, an unmapped answer included, and the page the
// last predecoded fetch used. A data access hits the first cache nearly
// always, so it hashes nothing. Reads therefore write the address space.
//
// A page may also carry a predecoded table of the instructions its bytes
// hold (AttachText), which the interpreter reads instead of fetching and
// decoding. The next write to the page drops the table, and Decoded serves
// it only while the page is executable.
//
// RecordTouches switches on a first-touch recorder: while a program runs,
// it keeps, for each 8-byte granule of data and each page, the epoch of the
// first access that touched it, in a side table beside the pages, as a
// taint tracker keeps its tags. An analysis sets the epoch as the run goes
// (SetTouchEpoch) and afterwards learns when a slot was first touched
// (FirstTouch) without running the program again.
//
// Faults are ordinary error values (*Fault) rather than panics, so the VM,
// the simulated kernel and analysis tooling can all distinguish "the access
// hit unmapped memory" from "the access hit mapped memory with the wrong
// permission" — a distinction the paper's mapped-only exception policy
// (§VII-C) depends on.
package mem

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"crashresist/internal/isa"
)

// PageSize is the granularity of mappings and permissions.
const PageSize = 4096

// Perm is a page permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec

	PermRW  = PermRead | PermWrite
	PermRX  = PermRead | PermExec
	PermRWX = PermRead | PermWrite | PermExec
)

// String renders the permission like "r-x".
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Access describes the kind of memory access that faulted.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota + 1
	AccessWrite
	AccessExec
)

// String returns "read", "write" or "exec".
func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	default:
		return "access?"
	}
}

func (a Access) perm() Perm {
	switch a {
	case AccessRead:
		return PermRead
	case AccessWrite:
		return PermWrite
	case AccessExec:
		return PermExec
	default:
		return 0
	}
}

// Fault reports a failed memory access. Unmapped distinguishes an access to
// memory with no mapping at all from one that violated permissions on a
// mapped page.
type Fault struct {
	Addr     uint64
	Access   Access
	Unmapped bool
}

// Error implements error.
func (f *Fault) Error() string {
	kind := "protection"
	if f.Unmapped {
		kind = "unmapped"
	}
	return fmt.Sprintf("%s fault: %s at %#x", kind, f.Access, f.Addr)
}

// page is one mapped page. data is nil until the first write, or a view of
// bytes the page shares: with the address spaces forked from its own, and,
// for a text page, with every process that loaded the image. owned reports
// that the address space holding this header allocated data and may write
// it in place; it is false for views and for pages without bytes, so their
// first write copies, and copying the header clears it. code, when set, is
// the predecoded table of the bytes the page held when it was attached;
// every write drops it.
type page struct {
	data  *[PageSize]byte
	code  *isa.Table
	perm  Perm
	owned bool
}

// zeroPage backs reads of never-written pages; nothing writes it.
var zeroPage [PageSize]byte

// bytes returns the page's contents for reading.
func (p *page) bytes() *[PageSize]byte {
	if p.data == nil {
		return &zeroPage
	}
	return p.data
}

// AddressSpace is a sparse 64-bit paged address space. It is not safe for
// concurrent use, not even for reads, which fill its lookup caches; the VM
// serializes all accesses. Fork is the exception: it only reads an address
// space that is itself a fork or was forked before (see Fork).
type AddressSpace struct {
	// pages is keyed by addr >> 12. When shared is set, forks may hold
	// the same map and headers, so neither may change before own copies
	// them.
	pages map[uint64]*page
	// data caches the last two data-access page lookups: entry i holds
	// the answer for page number dataPN[i]-1, nil when that page is
	// unmapped, and dataPN[i] is zero when the entry is empty. A miss
	// fills entry next, and the entries take turns. Map, Unmap and own
	// clear both caches; every other change to a page is made to the
	// cached header itself.
	data   [2]*page
	dataPN [2]uint64
	next   uint8
	shared bool
	// codePage caches the page Decoded found last, whose number is
	// codePN, since consecutive instructions mostly share a page.
	codePage *page
	codePN   uint64
	// rec is the first-touch record, nil while RecordTouches is off.
	rec *recorder
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{pages: make(map[uint64]*page)}
}

// Fork returns a copy of the address space: every mapping with its
// permission, bytes and predecoded table, but no first-touch record. It
// copies no bytes: both address spaces then share every page's bytes, and
// each copies a page on its own first write to it. It copies no header
// either: the two share the page table until either changes it.
//
// Fork writes to the source only to mark its page table shared the first
// time; the next write of either address space then copies the headers,
// and the copies own no bytes. A fork's table counts as shared from the
// start, so an address space that is never written after its own fork (a
// snapshot) can be forked by any number of goroutines at once.
func (as *AddressSpace) Fork() *AddressSpace {
	if !as.shared {
		as.shared = true
	}
	return &AddressSpace{pages: as.pages, shared: true}
}

// own gives the address space a page map and headers of its own if forks
// may share them. Every change to the map or to a header calls it first.
func (as *AddressSpace) own() {
	if !as.shared {
		return
	}
	as.pages, as.shared = copyPages(as.pages), false
	as.clearCaches()
}

// copyPages returns a copy of a page map and its headers, all in one slab.
// The copies own no bytes: the headers they were copied from may still
// hold them.
func copyPages(pages map[uint64]*page) map[uint64]*page {
	c := make(map[uint64]*page, len(pages))
	slab := make([]page, len(pages))
	i := 0
	for pn, p := range pages {
		slab[i] = *p
		slab[i].owned = false
		c[pn] = &slab[i]
		i++
	}
	return c
}

// lookup returns the page numbered pn, or nil when it is unmapped, from
// the data cache when it holds the answer. A miss fills the cache.
func (as *AddressSpace) lookup(pn uint64) *page {
	if as.dataPN[0] == pn+1 {
		return as.data[0]
	}
	if as.dataPN[1] == pn+1 {
		return as.data[1]
	}
	return as.miss(pn)
}

// miss looks pn up in the page map and caches the answer, nil included,
// in the entry whose turn it is.
func (as *AddressSpace) miss(pn uint64) *page {
	p := as.pages[pn]
	i := as.next
	as.data[i], as.dataPN[i], as.next = p, pn+1, i^1
	return p
}

// clearCaches empties the data and code-page caches, for a change that
// adds, removes or replaces page headers.
func (as *AddressSpace) clearCaches() {
	as.data, as.dataPN, as.codePage = [2]*page{}, [2]uint64{}, nil
}

// granule is the grain of the stamps data accesses leave.
const granule = 8

// recorder is an address space's first-touch record. A stamp is an epoch
// plus 2, at most 255: 0 means untouched, and an epoch past 253 reads as
// 253, earlier than it was, never later.
type recorder struct {
	// stamp is the current epoch's stamp.
	stamp byte
	// next is the cache entry the next miss fills.
	next  uint8
	pages map[uint64]*touchedPage
	// last caches the records of the last two pages looked up, as the
	// data cache does their headers: entry i is the record of page number
	// lastPN[i]-1, and lastPN[i] is 0 when the entry is empty.
	last   [2]*touchedPage
	lastPN [2]uint64
}

// touchedPage is one touched page's record: whole is the stamp of the
// page's first touch as a whole (a map, unmap or fetch), grains those of
// its granules, nil until a data access touches the page.
type touchedPage struct {
	whole  byte
	grains *[PageSize / granule]byte
}

// RecordTouches switches the first-touch recorder on, with an empty record
// and epoch -1, or off, dropping the record. While it is on, a data read or
// write that succeeds (a VM load, store, push or pop, an API stub's or the
// kernel's copy, WriteForce, WriteShared) stamps every 8-byte granule it
// covers that has no stamp yet with the current epoch. Map and Unmap stamp
// each page of their range whole, FetchExec each page it fetches from, and
// Decoded, which a fetch tries first, the page of each address it looks up.
// A page's whole stamp stands for each of its granules. Faulting accesses
// and permission checks (Check, Accessible, Mapped, PermAt) stamp nothing,
// and forks record nothing.
func (as *AddressSpace) RecordTouches(on bool) {
	as.rec = nil
	if on {
		// Decoded stamps on its cache's misses, so the cache starts empty.
		as.rec, as.codePage = &recorder{stamp: 1, pages: make(map[uint64]*touchedPage)}, nil
	}
}

// SetTouchEpoch sets the epoch, at least -1, that later touches are stamped
// with. Epochs should not decrease: a granule keeps its first stamp.
func (as *AddressSpace) SetTouchEpoch(epoch int) {
	if as.rec != nil {
		as.rec.stamp = byte(min(max(epoch, -1)+2, 255))
	}
}

// FirstTouch returns the least epoch stamped on a granule of [addr,
// addr+length), and whether any was, since RecordTouches switched the
// recorder on. It writes nothing.
func (as *AddressSpace) FirstTouch(addr, length uint64) (epoch int, touched bool) {
	r := as.rec
	if r == nil || length == 0 {
		return 0, false
	}
	end := addr + length - 1
	if end < addr {
		end = ^uint64(0)
	}
	first, last := addr/PageSize, end/PageSize
	var least byte
	visit := func(pn uint64, t *touchedPage) {
		least = earlier(least, t.whole)
		if t.grains == nil {
			return
		}
		lo, hi := uint64(0), uint64(PageSize-1)
		if pn == first {
			lo = addr % PageSize
		}
		if pn == last {
			hi = end % PageSize
		}
		for _, s := range t.grains[lo/granule : hi/granule+1] {
			least = earlier(least, s)
		}
	}
	if last-first < uint64(len(r.pages)) {
		for pn := first; pn <= last; pn++ {
			if t := r.pages[pn]; t != nil {
				visit(pn, t)
			}
		}
	} else {
		for pn, t := range r.pages {
			if first <= pn && pn <= last {
				visit(pn, t)
			}
		}
	}
	if least == 0 {
		return 0, false
	}
	return int(least) - 2, true
}

// earlier returns the earlier of two stamps, either of which may be 0 for
// none.
func earlier(a, b byte) byte {
	if a == 0 || b != 0 && b < a {
		return b
	}
	return a
}

// page returns the record of page pn, making it at the page's first touch.
func (r *recorder) page(pn uint64) *touchedPage {
	if r.lastPN[0] == pn+1 {
		return r.last[0]
	}
	if r.lastPN[1] == pn+1 {
		return r.last[1]
	}
	t := r.pages[pn]
	if t == nil {
		t = new(touchedPage)
		r.pages[pn] = t
	}
	i := r.next
	r.last[i], r.lastPN[i], r.next = t, pn+1, i^1
	return t
}

// touchPage stamps page pn whole, unless it was before.
func (r *recorder) touchPage(pn uint64) {
	if t := r.page(pn); t.whole == 0 {
		t.whole = r.stamp
	}
}

// touchData stamps the granules of [addr, addr+n), a non-empty range on one
// page, that have no stamp yet. On a page stamped whole no later than now,
// as a stack mapped while recording is, their stamps could not lower what
// FirstTouch reads, and it stamps none.
func (r *recorder) touchData(addr, n uint64) {
	t := r.page(addr / PageSize)
	if t.whole != 0 && t.whole <= r.stamp {
		return
	}
	if t.grains == nil {
		t.grains = new([PageSize / granule]byte)
	}
	off := addr % PageSize
	for g := off / granule; g <= (off+n-1)/granule; g++ {
		if t.grains[g] == 0 {
			t.grains[g] = r.stamp
		}
	}
}

// Map creates pages covering [addr, addr+length) with the given permission.
// addr and length must be page aligned and the range must not overlap an
// existing mapping. The new pages read as zeros; their headers share one
// allocation.
func (as *AddressSpace) Map(addr, length uint64, perm Perm) error {
	if addr%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("map %#x+%#x: not page aligned", addr, length)
	}
	if length == 0 {
		return fmt.Errorf("map %#x: zero length", addr)
	}
	first, n := addr/PageSize, length/PageSize
	for i := uint64(0); i < n; i++ {
		if _, ok := as.pages[first+i]; ok {
			return fmt.Errorf("map %#x+%#x: overlaps existing page %#x", addr, length, (first+i)*PageSize)
		}
	}
	as.own()
	as.clearCaches()
	slab := make([]page, n)
	for i := range slab {
		slab[i].perm = perm
		as.pages[first+uint64(i)] = &slab[i]
		if as.rec != nil {
			as.rec.touchPage(first + uint64(i))
		}
	}
	return nil
}

// Unmap removes the pages covering [addr, addr+length). Unmapping holes is
// not an error, mirroring munmap semantics.
func (as *AddressSpace) Unmap(addr, length uint64) error {
	if addr%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("unmap %#x+%#x: not page aligned", addr, length)
	}
	first, n := addr/PageSize, length/PageSize
	as.own()
	for i := uint64(0); i < n; i++ {
		delete(as.pages, first+i)
		if as.rec != nil {
			as.rec.touchPage(first + i)
		}
	}
	as.clearCaches()
	return nil
}

// Protect changes the permission of all pages in [addr, addr+length). Every
// page in the range must be mapped.
func (as *AddressSpace) Protect(addr, length uint64, perm Perm) error {
	if addr%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("protect %#x+%#x: not page aligned", addr, length)
	}
	first, n := addr/PageSize, length/PageSize
	for i := uint64(0); i < n; i++ {
		if _, ok := as.pages[first+i]; !ok {
			return &Fault{Addr: (first + i) * PageSize, Access: AccessWrite, Unmapped: true}
		}
	}
	as.own()
	for i := uint64(0); i < n; i++ {
		as.pages[first+i].perm = perm
	}
	return nil
}

// Mapped reports whether addr lies on a mapped page.
func (as *AddressSpace) Mapped(addr uint64) bool {
	_, ok := as.pages[addr/PageSize]
	return ok
}

// PermAt returns the permission of the page containing addr, and whether the
// page is mapped.
func (as *AddressSpace) PermAt(addr uint64) (Perm, bool) {
	p, ok := as.pages[addr/PageSize]
	if !ok {
		return 0, false
	}
	return p.perm, true
}

// Check verifies that the whole range [addr, addr+length) is mapped with the
// permission needed for the given access, without transferring data. A nil
// return guarantees Read/Write on the same range cannot fault.
func (as *AddressSpace) Check(addr, length uint64, access Access) error {
	return as.check(addr, length, access, false)
}

// Accessible reports whether Check(addr, length, access) would return nil,
// without building the fault. A caller that only needs to know whether an
// access would fail (the kernel's -EFAULT paths) uses it, so a bad pointer
// costs no allocation.
func (as *AddressSpace) Accessible(addr, length uint64, access Access) bool {
	_, _, bad := as.firstBad(addr, length, access, false)
	return !bad
}

// check faults at the first byte of [addr, addr+length) that is unmapped or,
// unless anyPerm, whose page lacks the access's permission.
func (as *AddressSpace) check(addr, length uint64, access Access, anyPerm bool) error {
	if at, unmapped, bad := as.firstBad(addr, length, access, anyPerm); bad {
		return &Fault{Addr: at, Access: access, Unmapped: unmapped}
	}
	return nil
}

// firstBad finds the first byte of [addr, addr+length) that is unmapped or,
// unless anyPerm, whose page lacks the access's permission. A range that
// wraps past the top of the address space is unmapped at addr.
func (as *AddressSpace) firstBad(addr, length uint64, access Access, anyPerm bool) (at uint64, unmapped, bad bool) {
	if length == 0 {
		return 0, false, false
	}
	need := access.perm()
	end := addr + length - 1
	if end < addr { // wrap-around
		return addr, true, true
	}
	for pg := addr / PageSize; pg <= end/PageSize; pg++ {
		p := as.lookup(pg)
		if p == nil {
			return maxU64(pg*PageSize, addr), true, true
		}
		if !anyPerm && p.perm&need == 0 {
			return maxU64(pg*PageSize, addr), false, true
		}
	}
	return 0, false, false
}

// Read copies length bytes starting at addr into a fresh slice, checking
// read permission.
func (as *AddressSpace) Read(addr, length uint64) ([]byte, error) {
	if err := as.Check(addr, length, AccessRead); err != nil {
		return nil, err
	}
	out := make([]byte, length)
	as.copyOut(addr, out)
	return out, nil
}

// ReadInto fills buf from memory starting at addr, checking read permission.
func (as *AddressSpace) ReadInto(addr uint64, buf []byte) error {
	if n := uint64(len(buf)); n > 0 && addr%PageSize+n <= PageSize {
		// One page: one lookup serves the check, the record and the copy.
		p, err := as.pageFor(addr, AccessRead, false)
		if err != nil {
			return err
		}
		if as.rec != nil {
			as.rec.touchData(addr, n)
		}
		copy(buf, p.bytes()[addr%PageSize:])
		return nil
	}
	if err := as.Check(addr, uint64(len(buf)), AccessRead); err != nil {
		return err
	}
	as.copyOut(addr, buf)
	return nil
}

// Write copies data into memory at addr, checking write permission.
func (as *AddressSpace) Write(addr uint64, data []byte) error {
	return as.write(addr, data, false)
}

// WriteForce copies data into memory at addr ignoring write permission, but
// still requiring the pages to be mapped. Loaders and attacker corruption
// primitives use this.
func (as *AddressSpace) WriteForce(addr uint64, data []byte) error {
	return as.write(addr, data, true)
}

// write is Write, or WriteForce when anyPerm.
func (as *AddressSpace) write(addr uint64, data []byte, anyPerm bool) error {
	if n := uint64(len(data)); n > 0 && addr%PageSize+n <= PageSize {
		// One page: one lookup serves the check, the record, the
		// copy-on-write copy and the copy.
		p, err := as.pageFor(addr, AccessWrite, anyPerm)
		if err != nil {
			return err
		}
		as.writePage(p, addr, data)
		return nil
	}
	if err := as.check(addr, uint64(len(data)), AccessWrite, anyPerm); err != nil {
		return err
	}
	as.copyIn(addr, data)
	return nil
}

// pageFor returns the page holding addr, or the fault an access of that
// kind makes there: unmapped, or, unless anyPerm, lacking its permission.
func (as *AddressSpace) pageFor(addr uint64, access Access, anyPerm bool) (*page, error) {
	p := as.lookup(addr / PageSize)
	if p == nil {
		return nil, &Fault{Addr: addr, Access: access, Unmapped: true}
	}
	if !anyPerm && p.perm&access.perm() == 0 {
		return nil, &Fault{Addr: addr, Access: access}
	}
	return p, nil
}

// ReadUint reads a little-endian unsigned integer of the given byte width.
func (as *AddressSpace) ReadUint(addr uint64, size int) (uint64, error) {
	var buf [8]byte
	if err := as.ReadInto(addr, buf[:size]); err != nil {
		return 0, err
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	return v, nil
}

// WriteUint writes a little-endian unsigned integer of the given byte width.
func (as *AddressSpace) WriteUint(addr uint64, size int, v uint64) error {
	var buf [8]byte
	for i := 0; i < size; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	return as.Write(addr, buf[:size])
}

// FetchExec reads up to max bytes of executable memory at addr for
// instruction decoding. It returns however many contiguous executable bytes
// are available (at least 1), or a fault if addr itself is not executable.
func (as *AddressSpace) FetchExec(addr uint64, max int, buf []byte) ([]byte, error) {
	if max <= 0 {
		return nil, nil
	}
	p, ok := as.pages[addr/PageSize]
	if !ok {
		return nil, &Fault{Addr: addr, Access: AccessExec, Unmapped: true}
	}
	if p.perm&PermExec == 0 {
		return nil, &Fault{Addr: addr, Access: AccessExec}
	}
	buf = buf[:0]
	for len(buf) < max {
		p, ok := as.pages[addr/PageSize]
		if !ok || p.perm&PermExec == 0 {
			break
		}
		off := addr % PageSize
		take := PageSize - off
		if int(take) > max-len(buf) {
			take = uint64(max - len(buf))
		}
		if as.rec != nil {
			as.rec.touchPage(addr / PageSize)
		}
		buf = append(buf, p.bytes()[off:off+take]...)
		addr += take
	}
	return buf, nil
}

// AttachText makes the pages from addr on views of an image's text: page
// addr+i*PageSize reads text[i] and carries code[i], the predecoded table
// of those bytes, until its first write copies the bytes and drops the
// table. Nothing writes text, so any number of address spaces may share it.
// addr must be page aligned, every page mapped, and code as long as text.
func (as *AddressSpace) AttachText(addr uint64, text [][PageSize]byte, code []isa.Table) error {
	if addr%PageSize != 0 {
		return fmt.Errorf("attach text %#x: not page aligned", addr)
	}
	if len(code) != len(text) {
		return fmt.Errorf("attach text %#x: %d tables for %d pages", addr, len(code), len(text))
	}
	first := addr / PageSize
	for i := range text {
		if _, ok := as.pages[first+uint64(i)]; !ok {
			return &Fault{Addr: (first + uint64(i)) * PageSize, Access: AccessExec, Unmapped: true}
		}
	}
	as.own()
	for i := range text {
		p := as.pages[first+uint64(i)]
		p.data, p.owned, p.code = &text[i], false, &code[i]
	}
	return nil
}

// WriteShared writes seed's bytes [addr%PageSize, addr%PageSize+length),
// a non-empty range on one page, at addr, checking write permission as
// Write does. seed must be zero outside that range and nothing may ever
// write it. When addr's page has no bytes yet, the page becomes a view of
// seed, as a text page is a view of its image's bytes, and its first write
// copies seed; so one seed can stand for the same write in any number of
// address spaces. Otherwise it writes as Write. The recorder sees a write
// of the range either way.
func (as *AddressSpace) WriteShared(addr, length uint64, seed *[PageSize]byte) error {
	off := addr % PageSize
	if length == 0 || off+length > PageSize {
		return fmt.Errorf("write shared %#x+%#x: not a non-empty range on one page", addr, length)
	}
	p, err := as.pageFor(addr, AccessWrite, false)
	if err != nil {
		return err
	}
	if p.data != nil {
		as.writePage(p, addr, seed[off:off+length])
		return nil
	}
	if as.rec != nil {
		as.rec.touchData(addr, length)
	}
	if as.shared {
		as.own()
		p = as.lookup(addr / PageSize)
	}
	p.code, p.data, p.owned = nil, seed, false
	return nil
}

// Decoded returns the predecoded instruction starting at addr when addr's
// page is executable and still carries the table AttachText gave it, and the
// table holds an instruction there; otherwise it returns nil. A hit decodes
// exactly as FetchExec's bytes would, and points into the image's shared
// table, which the caller must not write. A miss is not a fault: the caller
// fetches and decodes the bytes itself, which is also how it learns of a
// fault.
func (as *AddressSpace) Decoded(addr uint64) *isa.Instruction {
	pn, p := addr/PageSize, as.codePage
	if p == nil || pn != as.codePN {
		var ok bool
		if p, ok = as.pages[pn]; !ok {
			return nil
		}
		as.codePage, as.codePN = p, pn
		if as.rec != nil {
			as.rec.touchPage(pn)
		}
	}
	if p.code == nil || p.perm&PermExec == 0 {
		return nil
	}
	return p.code.At(addr % PageSize)
}

// Regions returns the mapped regions as sorted (addr, length, perm) triples,
// coalescing adjacent pages with identical permissions.
func (as *AddressSpace) Regions() []Region {
	if len(as.pages) == 0 {
		return nil
	}
	keys := make([]uint64, 0, len(as.pages))
	for k := range as.pages {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	var out []Region
	cur := Region{Addr: keys[0] * PageSize, Length: PageSize, Perm: as.pages[keys[0]].perm}
	for _, k := range keys[1:] {
		p := as.pages[k]
		if k*PageSize == cur.Addr+cur.Length && p.perm == cur.Perm {
			cur.Length += PageSize
			continue
		}
		out = append(out, cur)
		cur = Region{Addr: k * PageSize, Length: PageSize, Perm: p.perm}
	}
	return append(out, cur)
}

// Region is a coalesced run of identically-permissioned pages.
type Region struct {
	Addr   uint64
	Length uint64
	Perm   Perm
}

// String renders the region like "[0x1000, 0x3000) rw-".
func (r Region) String() string {
	return fmt.Sprintf("[%#x, %#x) %s", r.Addr, r.Addr+r.Length, r.Perm)
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool {
	return addr >= r.Addr && addr < r.Addr+r.Length
}

func (as *AddressSpace) copyOut(addr uint64, buf []byte) {
	for len(buf) > 0 {
		p := as.lookup(addr / PageSize)
		n := copy(buf, p.bytes()[addr%PageSize:])
		if as.rec != nil {
			as.rec.touchData(addr, uint64(n))
		}
		buf = buf[n:]
		addr += uint64(n)
	}
}

// copyIn writes data at addr, page by page.
func (as *AddressSpace) copyIn(addr uint64, data []byte) {
	for len(data) > 0 {
		n := min(uint64(len(data)), PageSize-addr%PageSize)
		as.writePage(as.lookup(addr/PageSize), addr, data[:n])
		data = data[n:]
		addr += n
	}
}

// writePage is the one write path: it writes data, which fits in page p,
// at addr. It drops the page's predecoded table, and first copies the
// page's bytes unless the page owns them, and the page table if forks may
// share it.
func (as *AddressSpace) writePage(p *page, addr uint64, data []byte) {
	if as.rec != nil {
		as.rec.touchData(addr, uint64(len(data)))
	}
	if as.shared {
		as.own()
		p = as.lookup(addr / PageSize)
	}
	p.code = nil
	if !p.owned {
		d := new([PageSize]byte)
		if p.data != nil {
			*d = *p.data
		}
		p.data, p.owned = d, true
	}
	copy(p.data[addr%PageSize:], data)
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Allocator hands out randomized page-aligned base addresses inside a fixed
// arena, modelling ASLR. It is deterministic for a given seed, so every
// experiment in this repository is reproducible: its draws are exactly those
// of rand.New(rand.NewSource(seed)).Int63n.
type Allocator struct {
	// memo holds the seed's first draws, or is nil when the seed memo had
	// no room for the seed; draws counts the draws taken. Past the memo,
	// or without one, rng continues the same stream; it is nil until the
	// first draw it serves.
	memo  *[memoDraws]int64
	draws int
	rng   rand.Source
	seed  int64
	as    *AddressSpace
	low   uint64
	high  uint64
}

// NewAllocator creates an allocator placing mappings inside [low, high) of
// the given address space. low and high must be page aligned.
func NewAllocator(as *AddressSpace, low, high uint64, seed int64) *Allocator {
	return &Allocator{memo: memoFor(seed), seed: seed, as: as, low: low, high: high}
}

// Fork returns an allocator for as, a fork of a's address space, that
// continues a's stream: a copy of a that rebuilds its source from the seed
// and draw count when it first needs one. It writes nothing to a.
func (a *Allocator) Fork(as *AddressSpace) *Allocator {
	c := *a
	c.as, c.rng = as, nil
	return &c
}

// Alloc maps length bytes (rounded up to pages) at a randomized address and
// returns the base. It retries until it finds a free slot.
func (a *Allocator) Alloc(length uint64, perm Perm) (uint64, error) {
	length = RoundUp(length)
	if length == 0 {
		length = PageSize
	}
	span := (a.high - a.low - length) / PageSize
	if a.high-a.low < length || span == 0 {
		return 0, fmt.Errorf("alloc %#x: arena [%#x,%#x) too small", length, a.low, a.high)
	}
	const maxTries = 4096
	for try := 0; try < maxTries; try++ {
		base := a.low + uint64(a.int63n(int64(span)))*PageSize
		if err := a.as.Map(base, length, perm); err == nil {
			return base, nil
		}
	}
	return 0, fmt.Errorf("alloc %#x: no free slot after retries", length)
}

// int63n is math/rand's (*Rand).Int63n over int63, so it consumes the
// stream and returns values exactly as rand.New(rand.NewSource(seed)) does.
func (a *Allocator) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return a.int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := a.int63()
	for v > max {
		v = a.int63()
	}
	return v % n
}

// int63 returns the seed's next stream value: from the memo while it
// lasts, then from a source seeded afresh and advanced past the draws
// already taken.
func (a *Allocator) int63() int64 {
	if a.rng == nil {
		if a.memo != nil && a.draws < memoDraws {
			a.draws++
			return a.memo[a.draws-1]
		}
		a.rng = rand.NewSource(a.seed)
		for range a.draws {
			a.rng.Int63()
		}
	}
	a.draws++
	return a.rng.Int63()
}

const (
	// memoDraws is how many leading stream values the memo keeps per
	// seed. The paper runs' fuzz harness and server boots draw at most 6;
	// a browse draws 191 and continues past the memo.
	memoDraws = 64
	// memoSeeds bounds the memo: the first memoSeeds distinct seeds are
	// kept, later ones seed a source of their own.
	memoSeeds = 64
)

// seedMemo maps a seed to the first memoDraws values of its math/rand
// stream. Seeding a source costs about 10 µs and 5.4 KB, and every process
// a run boots takes the run's one seed. An entry is a pure
// function of its seed and never changes once published, so a hit and a
// miss yield the same layout.
var seedMemo struct {
	sync.Mutex
	draws map[int64]*[memoDraws]int64
}

// memoFor returns the seed's memo entry, computing and publishing it when
// there is room, or nil when the memo is full.
func memoFor(seed int64) *[memoDraws]int64 {
	seedMemo.Lock()
	defer seedMemo.Unlock()
	if d, ok := seedMemo.draws[seed]; ok || len(seedMemo.draws) >= memoSeeds {
		return d
	}
	d := new([memoDraws]int64)
	src := rand.NewSource(seed)
	for i := range d {
		d[i] = src.Int63()
	}
	if seedMemo.draws == nil {
		seedMemo.draws = make(map[int64]*[memoDraws]int64, memoSeeds)
	}
	seedMemo.draws[seed] = d
	return d
}

// RoundUp rounds n up to a multiple of PageSize.
func RoundUp(n uint64) uint64 {
	return (n + PageSize - 1) &^ uint64(PageSize-1)
}
