package mem

import (
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

// watchEvent is one event a Watch reported.
type watchEvent struct {
	ev           WatchEvent
	addr, length uint64
}

// TestWatchReportsEveryTouch watches 8 bytes and checks the event each
// access kind reports, that accesses to other pages report nothing, and
// that a fork is not watched.
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
	var got []watchEvent
	as.Watch(slot, 8, func(ev WatchEvent, addr, length uint64) { got = append(got, watchEvent{ev, addr, length}) })
	fork := as.Fork()
	var buf [10]byte
	steps := []struct {
		name string
		do   func() error
		want []watchEvent
	}{
		{"read elsewhere", func() error { _, err := as.ReadUint(base+8, 8); return err }, nil},
		{"read", func() error { _, err := as.ReadUint(slot+4, 4); return err }, []watchEvent{{WatchRead, slot + 4, 4}}},
		{"read across pages", func() error { _, err := as.Read(slot-PageSize, PageSize+4); return err },
			[]watchEvent{{WatchRead, base + PageSize, 0x10 + 4}}},
		{"predecoded fetch", func() error { _, _ = as.Decoded(slot); return nil }, []watchEvent{{WatchFetch, slot, 1}}},
		{"fetch", func() error { _, err := as.FetchExec(slot, 10, buf[:0]); return err }, []watchEvent{{WatchFetch, slot, 10}}},
		{"write", func() error { return as.WriteUint(slot, 8, 7) }, []watchEvent{{WatchWrite, slot, 8}}},
		{"forced write", func() error { return as.WriteForce(slot+7, []byte{1, 2}) }, []watchEvent{{WatchWrite, slot + 7, 2}}},
		{"write to the fork", func() error { return fork.WriteUint(slot, 8, 9) }, nil},
		{"unmap", func() error { return as.Unmap(base+PageSize, PageSize) }, []watchEvent{{WatchMap, base + PageSize, PageSize}}},
		{"remap", func() error { return as.Map(base+PageSize, PageSize, PermRW) }, []watchEvent{{WatchMap, base + PageSize, PageSize}}},
		{"read after remap", func() error { _, err := as.ReadUint(slot, 8); return err }, []watchEvent{{WatchRead, slot, 8}}},
	}
	for _, st := range steps {
		got = nil
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if len(got) != len(st.want) {
			t.Errorf("%s: events %+v, want %+v", st.name, got, st.want)
			continue
		}
		for i := range got {
			if got[i] != st.want[i] {
				t.Errorf("%s: events %+v, want %+v", st.name, got, st.want)
			}
		}
	}
}
