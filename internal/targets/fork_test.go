package targets

import (
	"bytes"
	"testing"

	"crashresist/internal/mem"
)

// TestBrowseSnapshotsResume browses small IE and Firefox once, keeping a
// snapshot of every Run slice, and finishes the browse in a fork of each:
// every fork must end exactly as the browse did, in clock, Stats, mapped
// regions and bytes. The snapshots themselves must stay where they were
// taken.
func TestBrowseSnapshotsResume(t *testing.T) {
	for _, build := range []func(BrowserParams) (*Browser, error){IE, Firefox} {
		params := SmallBrowserParams()
		params.TriggerTotal = 400_000 // a browse of several Run slices
		br, err := build(params)
		if err != nil {
			t.Fatal(err)
		}
		env, err := br.NewEnv(42)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Start(); err != nil {
			t.Fatal(err)
		}
		var snaps []*BrowseSnapshot
		var clocks []uint64
		err = env.BrowseSnapshots(func(slice int, s *BrowseSnapshot) {
			if slice != len(snaps) {
				t.Fatalf("%s: slice %d handed out as number %d", br.Name, len(snaps), slice)
			}
			snaps = append(snaps, s)
			clocks = append(clocks, env.Proc.Clock)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) < 2 {
			t.Fatalf("%s: %d snapshots, want a browse of several slices", br.Name, len(snaps))
		}
		for i, s := range snaps {
			f, err := s.Fork()
			if err != nil {
				t.Fatal(err)
			}
			if err := f.ResumeBrowse(); err != nil {
				t.Fatalf("%s slice %d: %v", br.Name, i, err)
			}
			if f.Proc.Clock != env.Proc.Clock || f.Proc.Stats != env.Proc.Stats {
				t.Errorf("%s slice %d: fork ends at clock %d %+v, browse at %d %+v",
					br.Name, i, f.Proc.Clock, f.Proc.Stats, env.Proc.Clock, env.Proc.Stats)
			}
			sameMemory(t, f.Proc.AS, env.Proc.AS)
			if s.env.Proc.Clock != clocks[i] {
				t.Errorf("%s slice %d: the snapshot moved from clock %d to %d", br.Name, i, clocks[i], s.env.Proc.Clock)
			}
		}
	}
}

// sameMemory fails t unless got maps the regions want does, with the same
// bytes in every readable one.
func sameMemory(t *testing.T, got, want *mem.AddressSpace) {
	t.Helper()
	gr, wr := got.Regions(), want.Regions()
	if len(gr) != len(wr) {
		t.Fatalf("%d regions, want %d", len(gr), len(wr))
	}
	for i, r := range wr {
		if gr[i] != r {
			t.Fatalf("region %v, want %v", gr[i], r)
		}
		if r.Perm&mem.PermRead == 0 {
			continue
		}
		g, _ := got.Read(r.Addr, r.Length)
		w, _ := want.Read(r.Addr, r.Length)
		if !bytes.Equal(g, w) {
			t.Errorf("bytes of %v differ", r)
		}
	}
}
