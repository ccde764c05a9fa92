package mem

import (
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
	if snap.id != before.id || snap.owns != before.owns {
		t.Errorf("forking the snapshot changed its owner number %d -> %d", before.id, snap.id)
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

// touch is one access a Watch reported.
type touch struct{ addr, length uint64 }

// TestWatchReportsEveryTouch watches 8 bytes and checks the address and
// length each access kind reports, that accesses to other pages report
// nothing, and that a fork is not watched.
func TestWatchReportsEveryTouch(t *testing.T) {
	const base, slot = 0x40000, 0x41010
	as := NewAddressSpace()
	if err := as.Map(base, 3*PageSize, PermRWX); err != nil {
		t.Fatal(err)
	}
	code := make([]byte, PageSize)
	code[0x10] = byte(isa.OpNop)
	text := [][PageSize]byte{[PageSize]byte(code)}
	if err := as.AttachText(base+PageSize, text, isa.SweepPages(code, PageSize)); err != nil {
		t.Fatal(err)
	}
	var got []touch
	as.Watch(slot, 8, func(addr, length uint64) { got = append(got, touch{addr, length}) })
	fork := as.Fork()
	var buf [10]byte
	steps := []struct {
		name string
		do   func() error
		want []touch
	}{
		{"read elsewhere", func() error { _, err := as.ReadUint(base+8, 8); return err }, nil},
		{"read", func() error { _, err := as.ReadUint(slot+4, 4); return err }, []touch{{slot + 4, 4}}},
		{"read across pages", func() error { _, err := as.Read(slot-PageSize, PageSize+4); return err },
			[]touch{{base + PageSize, 0x10 + 4}}},
		{"predecoded fetch", func() error { _ = as.Decoded(slot); return nil }, []touch{{slot, 1}}},
		{"fetch", func() error { _, err := as.FetchExec(slot, 10, buf[:0]); return err }, []touch{{slot, 10}}},
		{"write", func() error { return as.WriteUint(slot, 8, 7) }, []touch{{slot, 8}}},
		{"forced write", func() error { return as.WriteForce(slot+7, []byte{1, 2}) }, []touch{{slot + 7, 2}}},
		{"write to the fork", func() error { return fork.WriteUint(slot, 8, 9) }, nil},
		{"unmap", func() error { return as.Unmap(base+PageSize, PageSize) }, []touch{{base + PageSize, PageSize}}},
		{"remap", func() error { return as.Map(base+PageSize, PageSize, PermRW) }, []touch{{base + PageSize, PageSize}}},
		{"read after remap", func() error { _, err := as.ReadUint(slot, 8); return err }, []touch{{slot, 8}}},
		{"unmap again", func() error { return as.Unmap(base+PageSize, PageSize) }, []touch{{base + PageSize, PageSize}}},
		{"map again", func() error { return as.Map(base+PageSize, PageSize, PermRW) }, []touch{{base + PageSize, PageSize}}},
		{"shared write", func() error { return as.WriteShared(slot, 8, seedAt(slot, 8)) }, []touch{{slot, 8}}},
	}
	for _, st := range steps {
		got = nil
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if !slices.Equal(got, st.want) {
			t.Errorf("%s: touches %+v, want %+v", st.name, got, st.want)
		}
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
	if p := as.pages[addr/PageSize]; p.data != seed || p.owner != 0 {
		t.Fatalf("page data %p owner %d, want a view of the seed %p", p.data, p.owner, seed)
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
