package mem

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"crashresist/internal/isa"
)

// TestForkSnapshotConcurrently forks a snapshot that is never written from
// several goroutines at once, each writing its own fork, after the address
// space the snapshot came from wrote again. Forking must leave the snapshot
// as it was, every copy must read only its own writes, and under -race a
// write that reached shared bytes is a race.
func TestForkSnapshotConcurrently(t *testing.T) {
	const base = 0x40000
	live := NewAddressSpace()
	if err := live.Map(base, 4*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := live.WriteUint(base+8, 8, 1); err != nil {
		t.Fatal(err)
	}
	snap := live.Fork()
	if err := live.WriteUint(base+8, 8, 2); err != nil {
		t.Fatal(err)
	}
	before := *snap
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				f := snap.Fork()
				v := uint64(100*g + i)
				if err := f.WriteUint(base+8, 8, v); err != nil {
					t.Error(err)
					return
				}
				if err := f.WriteUint(base+PageSize-4, 8, v); err != nil { // straddles two pages
					t.Error(err)
					return
				}
				if got, _ := f.ReadUint(base+8, 8); got != v {
					t.Errorf("fork reads %d, wrote %d", got, v)
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(*snap, before) {
		t.Error("forking the snapshot wrote to it")
	}
	if got, _ := snap.ReadUint(base+8, 8); got != 1 {
		t.Errorf("snapshot reads %d, want 1", got)
	}
	if got, _ := snap.ReadUint(base+PageSize-4, 8); got != 0 {
		t.Errorf("snapshot reads %d across the page boundary, want 0", got)
	}
	if got, _ := live.ReadUint(base+8, 8); got != 2 {
		t.Errorf("source reads %d, want 2", got)
	}
}

// TestFirstTouch runs one access of each kind per epoch with the recorder
// on and checks the epoch FirstTouch reads on and beside what each touched:
// data reads and writes stamp their 8-byte granules, keeping the first
// epoch; map, unmap and fetches, predecoded or not, stamp pages whole;
// faulting accesses, permission checks and a fork's accesses stamp nothing;
// an epoch past 253 reads as 253.
func TestFirstTouch(t *testing.T) {
	const base = 0x40000
	pg := func(i uint64) uint64 { return base + i*PageSize }
	as := NewAddressSpace()
	if err := as.Map(base, 7*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	code := make([]byte, PageSize)
	code[0x10] = byte(isa.OpNop)
	if err := as.AttachText(pg(3), [][PageSize]byte{[PageSize]byte(code)}, isa.SweepPages(code, PageSize)); err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		page uint64
		perm Perm
	}{{2, PermRead}, {3, PermRX}, {6, PermRX}} {
		if err := as.Protect(pg(p.page), PageSize, p.perm); err != nil {
			t.Fatal(err)
		}
	}
	as.RecordTouches(true)
	if e, ok := as.FirstTouch(base, 7*PageSize); ok {
		t.Fatalf("the record reads epoch %d before any touch", e)
	}
	fork := as.Fork()
	var buf [16]byte
	steps := []struct {
		name  string
		do    func() error
		fault bool
	}{
		{"read", func() error { _, err := as.ReadUint(base+0x14, 4); return err }, false},
		{"read again", func() error { _, err := as.ReadUint(base+0x10, 8); return err }, false},
		{"write across pages", func() error { return as.WriteUint(pg(1)-4, 8, 1) }, false},
		{"read into", func() error { return as.ReadInto(base+0x40, buf[:]) }, false},
		{"forced write", func() error { return as.WriteForce(pg(2)+0x20, []byte{1, 2}) }, false},
		{"faulting write", func() error { return as.WriteUint(pg(2)+0x28, 8, 1) }, true},
		{"faulting read", func() error { _, err := as.Read(base-4, 8); return err }, true},
		{"checks", func() error {
			as.Accessible(base+0x80, 8, AccessRead)
			as.Mapped(base + 0x88)
			as.PermAt(base + 0x88)
			return as.Check(base+0x80, 16, AccessWrite)
		}, false},
		{"shared write", func() error { return as.WriteShared(pg(4)+0x200, 8, seedAt(pg(4)+0x200, 8)) }, false},
		{"fork's write", func() error { return fork.WriteUint(base+0x100, 8, 1) }, false},
		{"predecoded fetch", func() error {
			if as.Decoded(pg(3)+0x10) == nil {
				t.Fatal("no predecoded instruction")
			}
			return nil
		}, false},
		{"fetch", func() error { _, err := as.FetchExec(pg(6)+0x10, 10, buf[:0]); return err }, false},
		{"map", func() error { return as.Map(pg(7), PageSize, PermRW) }, false},
		{"unmap", func() error { return as.Unmap(pg(5), PageSize) }, false},
	}
	for i, st := range steps {
		as.SetTouchEpoch(i)
		if err := st.do(); (err != nil) != st.fault {
			t.Fatalf("%s: error %v, want a fault: %v", st.name, err, st.fault)
		}
	}
	as.SetTouchEpoch(300)
	if _, err := as.ReadUint(base+0x200, 8); err != nil {
		t.Fatal(err)
	}
	const none = -2 // untouched
	checks := []struct {
		addr, length uint64
		want         int
	}{
		{base + 0x10, 8, 0},
		{base + 0x17, 1, 0},
		{base + 0x8, 8, none},
		{base + 0x18, 8, none},
		{pg(1) - 8, 8, 2},
		{pg(1), 8, 2},
		{pg(1) + 8, 8, none},
		{base + 0x40, 16, 3},
		{base + 0x50, 8, none},
		{pg(2) + 0x20, 8, 4},
		{pg(2) + 0x28, 8, none},
		{base, 8, none},
		{base + 0x80, 16, none},
		{pg(4) + 0x200, 8, 8},
		{pg(4) + 0x208, 8, none},
		{base + 0x100, 8, none},
		{pg(3), 8, 10},
		{pg(3) + PageSize - 1, 1, 10},
		{pg(6) + 0x800, 8, 11},
		{pg(7) + 0x10, 8, 12},
		{pg(5) + 0x30, 8, 13},
		{base + 0x200, 8, 253},
		{base + 0x18, 0x1f0, 3},
		{base - PageSize, 16 * PageSize, 0},
		{0, ^uint64(0), 0},
	}
	for _, c := range checks {
		e, ok := as.FirstTouch(c.addr, c.length)
		if !ok {
			e = none
		}
		if e != c.want {
			t.Errorf("FirstTouch(%#x, %#x) = %d, want %d (%d: untouched)", c.addr, c.length, e, c.want, none)
		}
	}
	if e, ok := fork.FirstTouch(base+0x10, 8); ok {
		t.Errorf("the fork reads epoch %d: it records nothing", e)
	}
	as.RecordTouches(false)
	if e, ok := as.FirstTouch(base+0x10, 8); ok {
		t.Errorf("a switched-off recorder reads epoch %d", e)
	}
	as.RecordTouches(true)
	if _, err := as.ReadUint(base+0x10, 8); err != nil {
		t.Fatal(err)
	}
	if e, ok := as.FirstTouch(base, 7*PageSize); !ok || e != -1 {
		t.Errorf("a restarted record reads %d, %v; want -1, true", e, ok)
	}
}

// seedAt returns a seed page for WriteShared: 0xa5 over [addr, addr+length)
// of addr's page and zero elsewhere.
func seedAt(addr, length uint64) *[PageSize]byte {
	seed := new([PageSize]byte)
	for i := addr % PageSize; i < addr%PageSize+length; i++ {
		seed[i] = 0xa5
	}
	return seed
}

// TestWriteShared checks that a shared write to a page without bytes makes
// it a view of the seed that reads as the write, that each address space
// and fork copies the seed on its own first write and never changes it,
// that a page with bytes is written as Write writes it, and that the
// permission check and the one-page rule hold.
func TestWriteShared(t *testing.T) {
	const base = 0x40000
	as := NewAddressSpace()
	if err := as.Map(base, 2*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	addr := uint64(base + PageSize - 64)
	seed := seedAt(addr, 8)
	pristine := *seed
	if err := as.WriteShared(addr, 8, seed); err != nil {
		t.Fatal(err)
	}
	if p := as.pages[addr/PageSize]; p.data != seed || p.owned {
		t.Fatalf("page data %p owned %v, want a view of the seed %p", p.data, p.owned, seed)
	}
	if v, _ := as.ReadUint(addr, 8); v != 0xa5a5a5a5a5a5a5a5 {
		t.Fatalf("reads %#x after the shared write", v)
	}
	fork := as.Fork()
	if err := fork.WriteUint(addr-8, 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteUint(addr, 1, 2); err != nil {
		t.Fatal(err)
	}
	if *seed != pristine {
		t.Fatal("a write through the view changed the seed")
	}
	if v, _ := fork.ReadUint(addr-8, 8); v != 1 {
		t.Errorf("fork reads %#x below the slot, want 1", v)
	}
	if v, _ := fork.ReadUint(addr, 8); v != 0xa5a5a5a5a5a5a5a5 {
		t.Errorf("fork reads %#x at the slot, want the seed's bytes", v)
	}
	if v, _ := as.ReadUint(addr, 8); v != 0xa5a5a5a5a5a5a502 {
		t.Errorf("source reads %#x, want its own write over the seed", v)
	}

	// A page that has bytes keeps them.
	if err := as.WriteUint(base+8, 8, 3); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteShared(base+64, 8, seedAt(base+64, 8)); err != nil {
		t.Fatal(err)
	}
	if a, b := mustRead(t, as, base+8), mustRead(t, as, base+64); a != 3 || b != 0xa5a5a5a5a5a5a5a5 {
		t.Errorf("written page reads %#x and %#x, want 3 and the seed's bytes", a, b)
	}

	if err := as.Protect(base, 2*PageSize, PermRX); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteShared(addr, 8, seed); err == nil {
		t.Error("a shared write to an r-x page succeeded")
	}
	if err := as.WriteShared(0x90000, 8, seed); err == nil {
		t.Error("a shared write to an unmapped page succeeded")
	}
	if err := as.WriteShared(base+PageSize-4, 8, seed); err == nil {
		t.Error("a shared write across two pages succeeded")
	}
}

func mustRead(t *testing.T, as *AddressSpace, addr uint64) uint64 {
	t.Helper()
	v, err := as.ReadUint(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// forkRule says what a field of a fork holds, next to the same field of the
// value it was forked from.
type forkRule string

const (
	// same: the source's value; for a pointer, map or slice, the same
	// referent.
	same forkRule = "same"
	// forked: a value of the fork's own, not the source's, that forking
	// the source's made.
	forked forkRule = "forked"
	// reset: the zero value.
	reset forkRule = "reset"
	// copied: a pointer or slice whose contents equal the source's, in
	// storage of the fork's own.
	copied forkRule = "copied"
)

// checkFork fails t unless every field of *src's struct type has a rule in
// rules, every rule names a field, every field of *src but those in zeroOK
// is non-zero, so that each rule can tell its cases apart, and every field
// of *fork follows its rule. A field without a rule fails, so that a fork
// that reuses a spent value cannot carry one fork's state into the next.
func checkFork(t *testing.T, src, fork any, rules map[string]forkRule, zeroOK ...string) {
	t.Helper()
	s, f := reflect.ValueOf(src).Elem(), reflect.ValueOf(fork).Elem()
	typ := s.Type()
	for name := range rules {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("%s has no field %s, which has a fork rule", typ, name)
		}
	}
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		sv, fv := s.Field(i), f.Field(i)
		rule, ok := rules[name]
		switch {
		case !ok:
			t.Errorf("%s.%s has no fork rule", typ, name)
		case sv.IsZero() && !slices.Contains(zeroOK, name):
			t.Errorf("%s.%s is zero in the source, so its rule cannot be checked", typ, name)
		case rule == same && !identical(sv, fv),
			rule == forked && (fv.IsZero() || identical(sv, fv)),
			rule == reset && !fv.IsZero(),
			rule == copied && !copyOf(sv, fv):
			t.Errorf("%s.%s breaks its fork rule %q", typ, name, rule)
		}
	}
}

// identical reports whether a and b hold the same value: equal scalars,
// arrays and structs, and the same referent for pointers, maps and slices.
func identical(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Map, reflect.Func:
		return a.UnsafePointer() == b.UnsafePointer()
	case reflect.Slice:
		return a.UnsafePointer() == b.UnsafePointer() && a.Len() == b.Len()
	default:
		return a.Equal(b)
	}
}

// copyOf reports whether b, a pointer or slice, holds what a holds in
// storage of its own.
func copyOf(a, b reflect.Value) bool {
	if a.IsNil() || b.IsNil() || a.UnsafePointer() == b.UnsafePointer() {
		return false
	}
	if a.Kind() == reflect.Pointer {
		return a.Elem().Equal(b.Elem())
	}
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Len() {
		if !a.Index(i).Equal(b.Index(i)) {
			return false
		}
	}
	return true
}

// TestForkCensus forks an address space and an allocator whose fields are
// all non-zero and checks every field of the copies against its rule:
// AddressSpace.Fork shares the page table and starts every cache and the
// first-touch record empty, and Allocator.Fork continues the stream on the
// fork's address space.
func TestForkCensus(t *testing.T) {
	const base = 0x40000
	as := NewAddressSpace()
	if err := as.Map(base, 4*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	code := make([]byte, PageSize)
	code[0x10] = byte(isa.OpNop)
	if err := as.AttachText(base+2*PageSize, [][PageSize]byte{[PageSize]byte(code)}, isa.SweepPages(code, PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := as.Protect(base+2*PageSize, PageSize, PermRX); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteUint(base, 8, 1); err != nil {
		t.Fatal(err)
	}
	alloc := NewAllocator(as, 0x100000000, 0x80000000000, 77)
	for range memoDraws + 1 { // past the memo, so the allocator has a source
		if _, err := alloc.Alloc(PageSize, PermRW); err != nil {
			t.Fatal(err)
		}
	}
	as.RecordTouches(true)
	as.Fork() // marks the page table shared
	// Each read misses and flips next; read until next is non-zero.
	for pn := uint64(0); pn == 0 || as.next == 0; pn++ {
		if _, err := as.ReadUint(base+pn*PageSize, 8); err != nil {
			t.Fatal(err)
		}
	}
	if as.Decoded(base+2*PageSize+0x10) == nil {
		t.Fatal("no predecoded instruction")
	}

	fork := as.Fork()
	checkFork(t, as, fork, map[string]forkRule{
		"pages":    same,
		"data":     reset,
		"dataPN":   reset,
		"next":     reset,
		"shared":   same,
		"codePage": reset,
		"codePN":   reset,
		"rec":      reset,
	})
	checkFork(t, alloc, alloc.Fork(fork), map[string]forkRule{
		"memo":  same,
		"draws": same,
		"rng":   reset,
		"seed":  same,
		"as":    forked,
		"low":   same,
		"high":  same,
	})
}
