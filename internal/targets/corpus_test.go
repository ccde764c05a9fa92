package targets

import (
	"reflect"
	"sync"
	"testing"

	"crashresist/internal/isa"
	"crashresist/internal/mem"
	"crashresist/internal/vm"
	"crashresist/internal/winapi"
)

// legacyRegistry builds an environment's registry the way NewEnv did before
// browsers kept their corpus: a fresh corpus with the natives registered
// into it.
func legacyRegistry(tb testing.TB, br *Browser) *winapi.Registry {
	tb.Helper()
	reg, err := winapi.GenerateCorpus(br.Params.API)
	if err != nil {
		tb.Fatal(err)
	}
	registerBrowserNatives(reg, &BrowserEnv{Reg: reg, Browser: br})
	return reg
}

// callOutcome is what one API call leaves behind on a fresh fixture.
type callOutcome struct {
	R0      uint64
	Exc     *vm.Exception
	State   vm.ThreadState
	Threads int
	VEH     []uint64
}

// callOnFixture calls API id on a fresh Windows process whose thread passes
// ptr in every argument register, or the address of a mapped page when ptr
// is 0.
func callOnFixture(tb testing.TB, reg *winapi.Registry, id uint32, ptr uint64) callOutcome {
	tb.Helper()
	p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: 9})
	page, err := p.Alloc.Alloc(mem.PageSize, mem.PermRW)
	if err != nil {
		tb.Fatal(err)
	}
	if ptr == 0 {
		ptr = page
	}
	t, err := p.StartThread("caller", page, ptr, ptr, ptr, ptr, ptr)
	if err != nil {
		tb.Fatal(err)
	}
	exc := reg.Call(p, t, id)
	return callOutcome{R0: t.Reg(isa.R0), Exc: exc, State: t.State, Threads: len(p.Threads()), VEH: p.VEHandlers()}
}

// TestEnvRegistryMatchesLegacy checks that an environment's registry, the
// browser's shared corpus with the natives layered over it, answers every
// query for every ID and name exactly as a registry built the old way.
func TestEnvRegistryMatchesLegacy(t *testing.T) {
	br, err := IE(SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	env, err := br.NewEnv(3)
	if err != nil {
		t.Fatal(err)
	}
	got, want := env.Reg, legacyRegistry(t, br)
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	if !reflect.DeepEqual(got.All(), want.All()) {
		t.Fatal("All() differs")
	}
	for id := uint32(0); id <= uint32(want.Len())+1; id++ {
		gd, gok := got.ByID(id)
		wd, wok := want.ByID(id)
		if gok != wok || !reflect.DeepEqual(gd, wd) {
			t.Fatalf("ByID(%d) = %+v, %v; want %+v, %v", id, gd, gok, wd, wok)
		}
		for _, ptr := range []uint64{0, 0xdead0000} {
			if g, w := callOnFixture(t, got, id, ptr), callOnFixture(t, want, id, ptr); !reflect.DeepEqual(g, w) {
				t.Fatalf("Call(%d) with pointer %#x = %+v, want %+v", id, ptr, g, w)
			}
		}
	}
	for _, d := range want.All() {
		gd, gok := got.Lookup(d.Name)
		if !gok || !reflect.DeepEqual(gd, d) {
			t.Fatalf("Lookup(%q) = %+v, %v; want %+v", d.Name, gd, gok, d)
		}
		if id, err := got.Resolve(d.Name); err != nil || id != d.ID {
			t.Fatalf("Resolve(%q) = %d, %v; want %d", d.Name, id, err, d.ID)
		}
	}
	if _, err := got.Resolve("NoSuchFunction"); err == nil {
		t.Error("Resolve of an unknown name succeeded")
	}
	if br.APIs().Len() != want.Len()-6 {
		t.Errorf("the shared corpus holds %d functions; the natives leaked into it", br.APIs().Len())
	}
}

// TestEnvsConcurrent creates and browses environments of one browser from
// several goroutines: each must see what a lone environment of its seed
// sees. Run under -race it checks that the shared corpus and the shared
// predecoded text are only read.
func TestEnvsConcurrent(t *testing.T) {
	br, err := IE(SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	browse := func(seed int64) (vm.Stats, error) {
		env, err := br.NewEnv(seed)
		if err != nil {
			return vm.Stats{}, err
		}
		if err := env.Start(); err != nil {
			return vm.Stats{}, err
		}
		if err := env.Browse(); err != nil {
			return vm.Stats{}, err
		}
		return env.Proc.Stats, nil
	}
	const n = 4
	var (
		wg    sync.WaitGroup
		stats [n]vm.Stats
		errs  [n]error
	)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = browse(int64(i % 2))
		}()
	}
	wg.Wait()
	for i := range n {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := browse(int64(i % 2))
		if err != nil {
			t.Fatal(err)
		}
		if stats[i] != want || stats[i].Instructions == 0 {
			t.Errorf("environment %d: %+v, a lone environment of its seed %+v", i, stats[i], want)
		}
	}
}
