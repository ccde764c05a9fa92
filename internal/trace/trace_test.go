package trace

import (
	"fmt"
	"math"
	"testing"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/isa"
	"crashresist/internal/vm"
)

// stubAPI resolves any symbol to a sequential id and returns 0 from calls.
type stubAPI struct {
	ids   map[string]uint32
	calls []uint32
}

func newStubAPI() *stubAPI { return &stubAPI{ids: make(map[string]uint32)} }

func (s *stubAPI) Resolve(symbol string) (uint32, error) {
	if id, ok := s.ids[symbol]; ok {
		return id, nil
	}
	id := uint32(len(s.ids) + 1)
	s.ids[symbol] = id
	return id, nil
}

func (s *stubAPI) Call(p *vm.Process, t *vm.Thread, id uint32) *vm.Exception {
	s.calls = append(s.calls, id)
	t.SetReg(0, 0)
	return nil
}

func TestAPIHarvestAndContextTag(t *testing.T) {
	// jsengine.dll calls api "TargetFn"; main.exe calls api "OtherFn"
	// directly (no JS context).
	js := asm.NewBuilder("jsengine.dll", bin.KindLibrary)
	js.Func("invoke").
		CallImport("", "TargetFn").
		Ret().
		EndFunc()
	js.Export("invoke", "invoke")
	jsImg, err := js.Build()
	if err != nil {
		t.Fatal(err)
	}

	main := asm.NewBuilder("main.exe", bin.KindExecutable)
	main.Func("main").Entry("main").
		CallImport("", "OtherFn").
		CallImport("jsengine.dll", "invoke").
		CallImport("jsengine.dll", "invoke").
		Halt().
		EndFunc()
	mainImg, err := main.Build()
	if err != nil {
		t.Fatal(err)
	}

	p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: 4})
	api := newStubAPI()
	p.API = api
	if _, err := p.LoadImage(jsImg); err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadImage(mainImg); err != nil {
		t.Fatal(err)
	}

	rec := NewRecorder()
	rec.EnableAPIHarvest()
	rec.AddContextModule("jsengine.dll")
	rec.Attach(p)

	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)
	if p.State != vm.ProcExited {
		t.Fatalf("state = %v crash=%v", p.State, p.Crash)
	}

	targetID := api.ids["TargetFn"]
	otherID := api.ids["OtherFn"]

	ts, ok := rec.APIs()[targetID]
	if !ok {
		t.Fatal("TargetFn not harvested")
	}
	if ts.Count != 2 {
		t.Errorf("TargetFn count = %d, want 2", ts.Count)
	}
	if len(ts.Sites) != 1 || ts.Sites[0].Module != "jsengine.dll" || ts.Sites[0].Count != 2 {
		t.Errorf("TargetFn sites = %+v", ts.Sites)
	}
	if !ts.FromContext {
		t.Error("TargetFn should be tagged as called from JS context")
	}

	os, ok := rec.APIs()[otherID]
	if !ok {
		t.Fatal("OtherFn not harvested")
	}
	if os.FromContext {
		t.Error("OtherFn must not be tagged as JS context")
	}
	if os.Sites[0].Module != "main.exe" {
		t.Errorf("OtherFn site module = %q", os.Sites[0].Module)
	}
}

func TestCoverageRecordsGuardedRegions(t *testing.T) {
	b := asm.NewBuilder("app.exe", bin.KindExecutable)
	b.Func("main").Entry("main").
		Call("guarded").
		Halt().
		EndFunc()
	b.Func("guarded").
		Label("g0").
		Nop().
		Label("g0_end").
		Ret().
		Label("land").
		Ret().
		EndFunc()
	b.Func("cold").
		Label("c0").
		Nop().
		Label("c0_end").
		Ret().
		EndFunc()
	b.Guard("guarded", "g0", "g0_end", asm.CatchAll, "land")
	b.Guard("cold", "c0", "c0_end", asm.CatchAll, "c0")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: 4})
	if _, err := p.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	rec.EnableCoverage()
	rec.Attach(p)
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)

	hits := rec.HitScopes()
	if len(hits) != 1 {
		t.Fatalf("hit scopes = %v, want exactly the executed guard", hits)
	}
	if hits[0].Module != "app.exe" || hits[0].Index != 0 {
		t.Errorf("hit = %+v", hits[0])
	}
	if rec.ScopeHits()[hits[0]] == 0 {
		t.Error("hit count zero")
	}
}

func TestExceptionLog(t *testing.T) {
	b := asm.NewBuilder("app.exe", bin.KindExecutable)
	b.Func("main").Entry("main").
		MovRI(isa.R1, 0xbad0000).
		Label("try").
		Load(8, isa.R0, isa.R1, 0).
		Label("try_end").
		MovRI(isa.R1, 0xbad1000).
		Load(8, isa.R0, isa.R1, 0). // unguarded: crash
		Halt().
		Label("land").
		Jmp("try_end").
		EndFunc()
	b.Guard("main", "try", "try_end", asm.CatchAll, "land")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: 4})
	if _, err := p.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	rec.EnableExceptionLog()
	rec.Attach(p)
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)

	evs := rec.Exceptions()
	if len(evs) != 2 {
		t.Fatalf("exceptions = %d, want 2", len(evs))
	}
	if !evs[0].Handled || evs[0].HandlerPC == 0 {
		t.Errorf("first exception should be handled: %+v", evs[0])
	}
	if evs[1].Handled {
		t.Errorf("second exception should be fatal: %+v", evs[1])
	}
	if evs[0].Addr != 0xbad0000 || evs[1].Addr != 0xbad1000 {
		t.Errorf("addrs = %#x %#x", evs[0].Addr, evs[1].Addr)
	}
	if !evs[0].Unmapped {
		t.Error("unmapped flag lost")
	}

	rec.ResetExceptions()
	if len(rec.Exceptions()) != 0 {
		t.Error("ResetExceptions did not clear")
	}
}

func TestRatePerSecond(t *testing.T) {
	mk := func(clocks ...uint64) []ExcEvent {
		out := make([]ExcEvent, len(clocks))
		for i, c := range clocks {
			out[i] = ExcEvent{Clock: c}
		}
		return out
	}
	tests := []struct {
		name   string
		events []ExcEvent
		window uint64
		want   uint64
	}{
		{"empty", nil, 100, 0},
		{"zero window", mk(1, 2), 0, 0},
		{"all within", mk(1, 2, 3), 100, 3},
		{"spread", mk(0, 1000, 2000, 3000), 100, 1},
		{"burst", mk(0, 10, 20, 5000, 5010, 5020, 5030), 100, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := RatePerSecond(tt.events, tt.window); got != tt.want {
				t.Errorf("RatePerSecond = %d, want %d", got, tt.want)
			}
		})
	}
}

// TestRatePerSecondHalfOpenWindow pins the window convention to [t, t+w):
// an event exactly one window after another never shares a window with it,
// while one tick earlier both land in the same window. The defense
// engine's bucket evaluator (defense.Evaluate) assumes this convention.
func TestRatePerSecondHalfOpenWindow(t *testing.T) {
	const w = 1_000_000
	boundary := []ExcEvent{{Clock: 0}, {Clock: w}}
	if got := RatePerSecond(boundary, w); got != 1 {
		t.Errorf("events w apart: peak = %d, want 1 (window must be half-open)", got)
	}
	inside := []ExcEvent{{Clock: 0}, {Clock: w - 1}}
	if got := RatePerSecond(inside, w); got != 2 {
		t.Errorf("events w-1 apart: peak = %d, want 2", got)
	}
}

func TestRecorderNoopsWhenDisabled(t *testing.T) {
	b := asm.NewBuilder("app.exe", bin.KindExecutable)
	b.Func("main").Entry("main").Halt().EndFunc()
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: 4})
	if _, err := p.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	rec.Attach(p)
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.RunUntilIdle(1_000_000)
	if len(rec.APIs()) != 0 || len(rec.HitScopes()) != 0 || len(rec.Exceptions()) != 0 {
		t.Error("disabled recorder collected data")
	}
}

func ExampleRatePerSecond() {
	events := []ExcEvent{{Clock: 0}, {Clock: 50}, {Clock: 60}, {Clock: 5000}}
	fmt.Println(RatePerSecond(events, 100))
	// Output: 3
}

// TestCoverageCounterCarries runs a covered PC's 32-bit counter past its
// top: the scope's hits must still count every execution.
func TestCoverageCounterCarries(t *testing.T) {
	b := asm.NewBuilder("app.exe", bin.KindExecutable)
	b.Func("main").Entry("main").
		Label("g0").
		Nop().
		Label("g0_end").
		Halt().
		EndFunc()
	b.Guard("main", "g0", "g0_end", asm.CatchAll, "g0_end")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: 4})
	mod, err := p.LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	rec.EnableCoverage()
	rec.Attach(p)
	th, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	pc, ins := mod.VA(img.Entry), isa.Instruction{Op: isa.OpNop}
	rec.OnInstruction(th, pc, ins)
	counts := rec.cur.counts
	if len(counts) == 0 || counts[0] != 1 {
		t.Fatalf("counters %v after one execution, want the entry's at 1", counts)
	}
	counts[0] = math.MaxUint32 - 1 // as if run that often
	for range 3 {
		rec.OnInstruction(th, pc, ins)
	}
	key := ScopeKey{Module: "app.exe", Index: 0}
	if got, want := rec.ScopeHits()[key], uint64(math.MaxUint32)+2; got != want {
		t.Errorf("scope hits %d, want %d", got, want)
	}
}
