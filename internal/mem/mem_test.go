package mem

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestPermString(t *testing.T) {
	tests := []struct {
		give Perm
		want string
	}{
		{0, "---"},
		{PermRead, "r--"},
		{PermRW, "rw-"},
		{PermRX, "r-x"},
		{PermRWX, "rwx"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Perm(%d).String() = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestMapAndReadWrite(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Map(0x1000, 2*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	data := []byte("hello crash resistance")
	if err := as.Write(0x1100, data); err != nil {
		t.Fatal(err)
	}
	got, err := as.Read(0x1100, uint64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("Read = %q, want %q", got, data)
	}
}

func TestReadWriteSpansPages(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Map(0x1000, 2*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 100)
	addr := uint64(0x1000 + PageSize - 50)
	if err := as.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	got, err := as.Read(addr, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("cross-page read mismatch")
	}
}

func TestMapRejectsUnaligned(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Map(0x1001, PageSize, PermRW); err == nil {
		t.Error("unaligned addr should fail")
	}
	if err := as.Map(0x1000, 100, PermRW); err == nil {
		t.Error("unaligned length should fail")
	}
	if err := as.Map(0x1000, 0, PermRW); err == nil {
		t.Error("zero length should fail")
	}
}

func TestMapRejectsOverlap(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Map(0x1000, 2*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x1000+PageSize, PageSize, PermRead); err == nil {
		t.Error("overlapping map should fail")
	}
	// The failed map must not have created any partial mapping beyond it.
	if as.Mapped(0x1000 + 2*PageSize) {
		t.Error("failed map leaked pages")
	}
}

func TestUnmap(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Map(0x1000, 2*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(0x1000, PageSize); err != nil {
		t.Fatal(err)
	}
	if as.Mapped(0x1000) {
		t.Error("page still mapped after unmap")
	}
	if !as.Mapped(0x1000 + PageSize) {
		t.Error("second page should remain mapped")
	}
	var f *Fault
	if _, err := as.Read(0x1000, 1); !errors.As(err, &f) || !f.Unmapped {
		t.Errorf("read of unmapped page: err = %v, want unmapped fault", err)
	}
}

func TestProtect(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Map(0x1000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := as.Protect(0x1000, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(0x1000, []byte{1}); err == nil {
		t.Error("write to read-only page should fault")
	}
	if _, err := as.Read(0x1000, 1); err != nil {
		t.Errorf("read of read-only page failed: %v", err)
	}
	if err := as.Protect(0x8000, PageSize, PermRead); err == nil {
		t.Error("protect of unmapped page should fail")
	}
}

func TestFaultDetails(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Map(0x1000, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}

	var f *Fault
	err := as.Write(0x1004, []byte{1})
	if !errors.As(err, &f) {
		t.Fatalf("want *Fault, got %v", err)
	}
	if f.Unmapped {
		t.Error("permission fault misreported as unmapped")
	}
	if f.Access != AccessWrite {
		t.Errorf("Access = %v, want write", f.Access)
	}
	if f.Addr != 0x1004 {
		t.Errorf("Addr = %#x, want 0x1004", f.Addr)
	}

	err = as.Check(0x1000, 2*PageSize, AccessRead)
	if !errors.As(err, &f) {
		t.Fatalf("want *Fault, got %v", err)
	}
	if !f.Unmapped || f.Addr != 0x1000+PageSize {
		t.Errorf("fault = %+v, want unmapped at second page", f)
	}
}

func TestCheckWrapAround(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Check(^uint64(0)-1, 10, AccessRead); err == nil {
		t.Error("wrap-around range should fault")
	}
}

func TestWriteForce(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Map(0x1000, PageSize, PermRX); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteForce(0x1000, []byte{0xCC}); err != nil {
		t.Errorf("WriteForce to r-x page failed: %v", err)
	}
	if err := as.WriteForce(0x9000, []byte{0xCC}); err == nil {
		t.Error("WriteForce to unmapped page should fail")
	}
}

func TestReadWriteUint(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Map(0x1000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 2, 4, 8} {
		want := uint64(0x1122334455667788) & (^uint64(0) >> (64 - 8*size))
		if err := as.WriteUint(0x1000, size, want); err != nil {
			t.Fatal(err)
		}
		got, err := as.ReadUint(0x1000, size)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("size %d: got %#x, want %#x", size, got, want)
		}
	}
	// Verify little-endian layout.
	if err := as.WriteUint(0x1000, 4, 0x01020304); err != nil {
		t.Fatal(err)
	}
	raw, err := as.Read(0x1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, []byte{4, 3, 2, 1}) {
		t.Errorf("layout = %v, want little endian", raw)
	}
}

func TestFetchExec(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Map(0x1000, PageSize, PermRX); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteForce(0x1000+PageSize-2, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	// Fetch that runs off the end of executable memory returns what exists.
	buf, err := as.FetchExec(0x1000+PageSize-2, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0xAA, 0xBB}) {
		t.Errorf("FetchExec = %v", buf)
	}
	// Fetch from non-exec page faults.
	if err := as.Map(0x10000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	var f *Fault
	if _, err := as.FetchExec(0x10000, 4, nil); !errors.As(err, &f) || f.Access != AccessExec {
		t.Errorf("FetchExec on rw- page: err = %v, want exec fault", err)
	}
	if _, err := as.FetchExec(0x99000, 4, nil); !errors.As(err, &f) || !f.Unmapped {
		t.Errorf("FetchExec on unmapped: err = %v, want unmapped exec fault", err)
	}
}

func TestRegions(t *testing.T) {
	as := NewAddressSpace()
	for _, m := range []struct {
		addr uint64
		n    uint64
		perm Perm
	}{
		{0x1000, 2 * PageSize, PermRW},
		{0x3000, PageSize, PermRW},  // adjacent, same perm: coalesces with prior
		{0x4000, PageSize, PermRX},  // adjacent, different perm
		{0x10000, PageSize, PermRW}, // hole before this
	} {
		if err := as.Map(m.addr, m.n, m.perm); err != nil {
			t.Fatal(err)
		}
	}
	regions := as.Regions()
	want := []Region{
		{Addr: 0x1000, Length: 3 * PageSize, Perm: PermRW},
		{Addr: 0x4000, Length: PageSize, Perm: PermRX},
		{Addr: 0x10000, Length: PageSize, Perm: PermRW},
	}
	if len(regions) != len(want) {
		t.Fatalf("Regions = %v, want %v", regions, want)
	}
	for i := range want {
		if regions[i] != want[i] {
			t.Errorf("region %d = %v, want %v", i, regions[i], want[i])
		}
	}
	if !regions[0].Contains(0x1000) || regions[0].Contains(0x4000) {
		t.Error("Contains misbehaves")
	}
}

func TestRegionsEmpty(t *testing.T) {
	if got := NewAddressSpace().Regions(); got != nil {
		t.Errorf("Regions of empty space = %v, want nil", got)
	}
}

func TestAllocatorDeterministic(t *testing.T) {
	bases1 := allocN(t, 42, 5)
	bases2 := allocN(t, 42, 5)
	for i := range bases1 {
		if bases1[i] != bases2[i] {
			t.Fatalf("same seed produced different layout: %v vs %v", bases1, bases2)
		}
	}
	bases3 := allocN(t, 43, 5)
	same := true
	for i := range bases1 {
		if bases1[i] != bases3[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical layout (suspicious)")
	}
}

func allocN(t *testing.T, seed int64, n int) []uint64 {
	t.Helper()
	as := NewAddressSpace()
	alloc := NewAllocator(as, 0x10000, 0x10000000, seed)
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		base, err := alloc.Alloc(3*PageSize, PermRW)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, base)
	}
	return out
}

// refBases is the reference for Allocator: it places each length with
// math/rand itself, redrawing while the slot overlaps an earlier one.
func refBases(seed int64, low, high uint64, lengths []uint64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	var out []uint64
	for _, length := range lengths {
		span := int64((high - low - length) / PageSize)
	draw:
		for {
			base := low + uint64(rng.Int63n(span))*PageSize
			for j, prev := range out {
				if base < prev+lengths[j] && prev < base+length {
					continue draw
				}
			}
			out = append(out, base)
			break
		}
	}
	return out
}

// allocBases places lengths with an Allocator on a fresh address space.
func allocBases(seed int64, low, high uint64, lengths []uint64) ([]uint64, error) {
	a := NewAllocator(NewAddressSpace(), low, high, seed)
	var out []uint64
	for _, length := range lengths {
		base, err := a.Alloc(length, PermRW)
		if err != nil {
			return nil, err
		}
		out = append(out, base)
	}
	return out, nil
}

// allocCase is one arena and a run of allocations longer than the memo.
type allocCase struct {
	name      string
	low, high uint64
	lengths   []uint64
}

func allocCases() []allocCase {
	n := 2*memoDraws + 7
	mixed := make([]uint64, n)
	pages := make([]uint64, n)
	for i := range mixed {
		mixed[i] = uint64(1+i%3) * PageSize
		pages[i] = PageSize
	}
	return []allocCase{
		// vm's arena: collisions practically never happen.
		{"wide", 0x100000000, 0x80000000000, mixed},
		// 600 pages, 270 of them allocated by the end: collisions
		// force redraws.
		{"crowded", 0x10000, 0x10000 + 600*PageSize, mixed},
		// A span of 256 slots takes Int63n's power-of-two branch.
		{"pow2", 0x10000, 0x10000 + 257*PageSize, pages},
	}
}

func checkAllocMatchesRef(t *testing.T, seed int64) {
	t.Helper()
	for _, c := range allocCases() {
		got, err := allocBases(seed, c.low, c.high, c.lengths)
		if err != nil {
			t.Fatalf("seed %d %s: %v", seed, c.name, err)
		}
		if want := refBases(seed, c.low, c.high, c.lengths); !slices.Equal(got, want) {
			t.Errorf("seed %d %s: bases differ from math/rand's\n got %#x\nwant %#x", seed, c.name, got, want)
		}
	}
}

// TestAllocatorMatchesMathRand runs more allocations than the seed memo
// holds, for memoized seeds and for seeds past the memo's bound: every base
// must be the one rand.New(rand.NewSource(seed)).Int63n gives.
func TestAllocatorMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1<<40 + 3} {
		checkAllocMatchesRef(t, seed)
		if memoFor(seed) == nil {
			t.Logf("seed %d: memo already full, checked the unmemoized path", seed)
		}
	}
	// Fill the memo, then check seeds it cannot hold.
	for i := int64(0); i < memoSeeds; i++ {
		memoFor(1<<50 + i)
	}
	for _, seed := range []int64{1<<51 + 1, -(1 << 51)} {
		if memoFor(seed) != nil {
			t.Fatalf("seed %d memoized past the bound of %d seeds", seed, memoSeeds)
		}
		checkAllocMatchesRef(t, seed)
	}
}

// TestInt63nMatchesMathRand checks the copied Int63n on bounds whose
// rejection loop redraws about half the time, so the stream runs past the
// memo within a few calls.
func TestInt63nMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1<<40 + 3, 1<<51 + 2} {
		for _, n := range []int64{1<<62 + 1, 1 << 40, 3, 1<<31 - 1} {
			a := NewAllocator(NewAddressSpace(), 0, PageSize, seed)
			ref := rand.New(rand.NewSource(seed))
			for i := 0; i < 3*memoDraws; i++ {
				if got, want := a.int63n(n), ref.Int63n(n); got != want {
					t.Fatalf("seed %d n %d draw %d: got %d, want %d", seed, n, i, got, want)
				}
			}
		}
	}
}

// TestNewAllocatorConcurrent creates allocators from many goroutines, on
// seeds they share and seeds of their own, while the memo fills. Run it
// with -race.
func TestNewAllocatorConcurrent(t *testing.T) {
	c := allocCases()[1] // crowded: redraws, and every run passes the memo
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, seed := range []int64{99, 100, 1<<52 + int64(g)} {
				got, err := allocBases(seed, c.low, c.high, c.lengths)
				if err != nil {
					t.Error(err)
					return
				}
				if want := refBases(seed, c.low, c.high, c.lengths); !slices.Equal(got, want) {
					t.Errorf("goroutine %d seed %d: bases differ from math/rand's", g, seed)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestAllocatorExhaustion(t *testing.T) {
	as := NewAddressSpace()
	alloc := NewAllocator(as, 0x1000, 0x3000, 1)
	if _, err := alloc.Alloc(16*PageSize, PermRW); err == nil {
		t.Error("oversized alloc should fail")
	}
}

func TestRoundUp(t *testing.T) {
	tests := []struct{ give, want uint64 }{
		{0, 0},
		{1, PageSize},
		{PageSize, PageSize},
		{PageSize + 1, 2 * PageSize},
	}
	for _, tt := range tests {
		if got := RoundUp(tt.give); got != tt.want {
			t.Errorf("RoundUp(%d) = %d, want %d", tt.give, got, tt.want)
		}
	}
}

// TestQuickWriteRead property-tests that any successful write is read back
// identically at arbitrary offsets and lengths.
func TestQuickWriteRead(t *testing.T) {
	as := NewAddressSpace()
	const base, span = 0x100000, 16 * PageSize
	if err := as.Map(base, span, PermRW); err != nil {
		t.Fatal(err)
	}
	f := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := base + uint64(off)%(span-uint64(len(data)%span))
		if addr+uint64(len(data)) > base+span {
			return true // out of arena; skip
		}
		if err := as.Write(addr, data); err != nil {
			return false
		}
		got, err := as.Read(addr, uint64(len(data)))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickCheckConsistency property-tests that Check agreeing implies
// Read/Write succeed and Check failing implies they fail identically.
func TestQuickCheckConsistency(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Map(0x1000, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x3000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	f := func(addrRaw uint16, lenRaw uint8) bool {
		addr := uint64(addrRaw) << 4
		length := uint64(lenRaw)
		checkErr := as.Check(addr, length, AccessRead)
		_, readErr := as.Read(addr, length)
		return (checkErr == nil) == (readErr == nil)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
