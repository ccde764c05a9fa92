// Package mem implements the paged virtual address space used by simulated
// processes: 4 KiB pages, per-page R/W/X permissions, precise fault reporting,
// and a seeded ASLR allocator.
//
// A page's bytes are allocated on its first write; until then it reads and
// fetches as zeros, so a mapping nobody touches (most of a thread stack)
// costs only its header.
//
// Page bytes are shared copy-on-write. Fork copies an address space's page
// headers but none of their bytes, and AttachText maps a loaded image's
// text pages as views of bytes every process loading the image shares. A
// page's bytes are written in place only by the address space that owns
// them; every other write first copies them, so a write in one address
// space never shows in another. Every write reaches a page through one
// path, writePage.
//
// A page may also carry a predecoded table of the instructions its bytes
// hold (AttachText), which the interpreter reads instead of fetching and
// decoding. The next write to the page drops the table, and Decoded serves
// it only while the page is executable.
//
// Watch reports every read, instruction fetch, write, map and unmap that
// touches chosen pages, so an analysis can learn when a slot is first read
// without stepping the program itself.
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
	"sync/atomic"

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
// for a text page, with every process that loaded the image. owner is the
// address space that may write data in place; it is zero for views and for
// pages without bytes, so their first write copies. code, when set, is the
// predecoded table of the bytes the page held when it was attached; every
// write drops it. watched marks a page Watch reports.
type page struct {
	data    *[PageSize]byte
	code    *isa.Table
	owner   uint64
	perm    Perm
	watched bool
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

// spaceIDs numbers address spaces; page owners hold these numbers.
var spaceIDs atomic.Uint64

// WatchEvent is what touched a watched page.
type WatchEvent uint8

// Watch events.
const (
	// WatchRead is a data read: a VM load, an API stub's read or a
	// kernel copy out of the process.
	WatchRead WatchEvent = iota + 1
	// WatchFetch is an instruction fetch, predecoded or not.
	WatchFetch
	// WatchWrite is any write, with or without write permission.
	WatchWrite
	// WatchMap is a Map or Unmap of the page.
	WatchMap
)

// AddressSpace is a sparse 64-bit paged address space. It is not safe for
// concurrent use; the VM serializes all accesses. Fork is the exception: it
// only reads an address space that owns no page (see Fork).
type AddressSpace struct {
	pages map[uint64]*page // keyed by addr >> 12
	// codePage caches the page Decoded found last, whose number is
	// codePN, since consecutive instructions mostly share a page. Unmap
	// clears it; every other change to a page is made to the cached
	// page itself.
	codePage *page
	codePN   uint64
	// id is the owner number of the pages this address space may write
	// in place, and owns reports whether any page has it.
	id   uint64
	owns bool
	// watch receives the events on watched pages; watchPN holds the
	// watched page numbers, mapped or not.
	watch   func(ev WatchEvent, addr, length uint64)
	watchPN map[uint64]bool
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{pages: make(map[uint64]*page), id: spaceIDs.Add(1)}
}

// Fork returns a copy of the address space: every mapping with its
// permission, bytes, predecoded table and watch-free header. It copies the
// page headers and no bytes: both address spaces then share every page's
// bytes, and each copies a page on its own first write to it. Fork writes
// to the source only when the source owns a page, to stop writing its
// pages in place; so an address space that is never written after its own
// fork (a snapshot) can be forked by any number of goroutines at once.
func (as *AddressSpace) Fork() *AddressSpace {
	if as.owns {
		as.id, as.owns = spaceIDs.Add(1), false
	}
	c := &AddressSpace{pages: make(map[uint64]*page, len(as.pages)), id: spaceIDs.Add(1)}
	slab := make([]page, len(as.pages))
	i := 0
	for pn, p := range as.pages {
		slab[i] = *p
		slab[i].watched = false
		c.pages[pn] = &slab[i]
		i++
	}
	return c
}

// Watch makes the pages holding [addr, addr+length) watched, mapped or not,
// and sends fn every event that touches a watched page from now on: its
// address and length, which may reach past the watched range on the same
// page. An address space has one watcher; each Watch replaces fn. Forks
// are not watched.
func (as *AddressSpace) Watch(addr, length uint64, fn func(ev WatchEvent, addr, length uint64)) {
	as.watch = fn
	if length == 0 {
		return
	}
	if as.watchPN == nil {
		as.watchPN = make(map[uint64]bool)
	}
	for pn := addr / PageSize; pn <= (addr+length-1)/PageSize; pn++ {
		as.watchPN[pn] = true
		if p, ok := as.pages[pn]; ok {
			p.watched = true
		}
	}
}

// notifyMap reports a Map or Unmap of the watched pages in [first,
// first+n).
func (as *AddressSpace) notifyMap(first, n uint64) {
	for i := uint64(0); i < n; i++ {
		if as.watchPN[first+i] {
			as.watch(WatchMap, (first+i)*PageSize, PageSize)
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
	slab := make([]page, n)
	for i := range slab {
		slab[i].perm = perm
		slab[i].watched = as.watchPN[first+uint64(i)]
		as.pages[first+uint64(i)] = &slab[i]
	}
	if as.watchPN != nil {
		as.notifyMap(first, n)
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
	if as.watchPN != nil {
		as.notifyMap(first, n)
	}
	for i := uint64(0); i < n; i++ {
		delete(as.pages, first+i)
	}
	as.codePage = nil
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
		p, ok := as.pages[pg]
		if !ok {
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
		// One page: one lookup serves the check, the watch and the copy.
		p, err := as.pageFor(addr, AccessRead, false)
		if err != nil {
			return err
		}
		if p.watched {
			as.watch(WatchRead, addr, n)
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
		// One page: one lookup serves the check, the watch, the
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
	p, ok := as.pages[addr/PageSize]
	if !ok {
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
		if p.watched {
			as.watch(WatchFetch, addr, take)
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
	for i := range text {
		p := as.pages[first+uint64(i)]
		p.data, p.owner, p.code = &text[i], 0, &code[i]
	}
	return nil
}

// Decoded returns the predecoded instruction starting at addr when addr's
// page is executable and still carries the table AttachText gave it, and the
// table holds an instruction there. A hit decodes exactly as FetchExec's
// bytes would. A miss is not a fault: the caller fetches and decodes the
// bytes itself, which is also how it learns of a fault.
func (as *AddressSpace) Decoded(addr uint64) (isa.Instruction, bool) {
	pn, p := addr/PageSize, as.codePage
	if p == nil || pn != as.codePN {
		var ok bool
		if p, ok = as.pages[pn]; !ok {
			return isa.Instruction{}, false
		}
		as.codePage, as.codePN = p, pn
	}
	if p.code == nil || p.perm&PermExec == 0 {
		return isa.Instruction{}, false
	}
	ins, ok := p.code.At(addr % PageSize)
	if ok && p.watched {
		as.watch(WatchFetch, addr, uint64(ins.Size()))
	}
	return ins, ok
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
		p := as.pages[addr/PageSize]
		n := copy(buf, p.bytes()[addr%PageSize:])
		if p.watched {
			as.watch(WatchRead, addr, uint64(n))
		}
		buf = buf[n:]
		addr += uint64(n)
	}
}

// copyIn writes data at addr, page by page.
func (as *AddressSpace) copyIn(addr uint64, data []byte) {
	for len(data) > 0 {
		n := min(uint64(len(data)), PageSize-addr%PageSize)
		as.writePage(as.pages[addr/PageSize], addr, data[:n])
		data = data[n:]
		addr += n
	}
}

// writePage is the one write path: it writes data, which fits in page p,
// at addr. It drops the page's predecoded table, and first copies the
// page's bytes unless this address space owns them.
func (as *AddressSpace) writePage(p *page, addr uint64, data []byte) {
	if p.watched {
		as.watch(WatchWrite, addr, uint64(len(data)))
	}
	p.code = nil
	if p.owner != as.id {
		d := new([PageSize]byte)
		if p.data != nil {
			*d = *p.data
		}
		p.data, p.owner, as.owns = d, as.id, true
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
// continues a's stream: it keeps a's seed and draw count and rebuilds its
// source from them when it first needs one. It writes nothing to a.
func (a *Allocator) Fork(as *AddressSpace) *Allocator {
	return &Allocator{memo: a.memo, draws: a.draws, seed: a.seed, as: as, low: a.low, high: a.high}
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
	// seed. The paper runs' fuzz probes and server boots draw at most 6;
	// a browse draws 191 and continues past the memo.
	memoDraws = 64
	// memoSeeds bounds the memo: the first memoSeeds distinct seeds are
	// kept, later ones seed a source of their own.
	memoSeeds = 64
)

// seedMemo maps a seed to the first memoDraws values of its math/rand
// stream. Seeding a source costs about 10 µs and 5.4 KB, and every fuzz
// probe boots a process with the run's one seed. An entry is a pure
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
