// Package fuzz implements the black-box Windows-API fuzzer of §IV-B/§V-B:
// it calls every API function that takes a pointer argument (per its
// documented signature) with a battery of invalid pointers and classifies
// the function as crash-resistant when every probe returns gracefully
// instead of faulting.
//
// The fuzzer knows only each function's documented signature (argument
// count and which arguments are pointers — the MSDN-derived information the
// paper used); it never consults the generator's behaviour category. A
// fuzzer boots one single-shot harness process on its first probe, and each
// probe runs in its own fork of it (vm.Process.Fork) with the function
// under test as the fork's API handler. A fork's writes stay private to it,
// so a crash still cannot poison subsequent probes, and a probe costs
// exactly what a freshly booted harness would.
package fuzz

import (
	"fmt"
	"sync"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/faultinject"
	"crashresist/internal/isa"
	"crashresist/internal/vm"
	"crashresist/internal/winapi"
)

// InvalidPointers is the probe battery: NULL, unmapped low, unmapped high,
// and a kernel-space-looking address.
var InvalidPointers = []uint64{
	0,
	0x00000000dead0000,
	0x00007ffffff00000,
	0xffff800000000000,
}

// Outcome classifies one probe.
type Outcome uint8

// Probe outcomes.
const (
	OutcomeGraceful Outcome = iota + 1 // returned, process alive
	OutcomeCrash                       // process died on the probe
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeGraceful:
		return "graceful"
	case OutcomeCrash:
		return "crash"
	default:
		return "outcome?"
	}
}

// Probe is one invalid-pointer invocation result.
type Probe struct {
	Pointer uint64
	Outcome Outcome
	// Ret is the API return value for graceful probes.
	Ret uint64
	// Instructions counts the instructions the probe's harness process
	// retired — the probe's exact virtual cost, attributable per pointer
	// by the cost profiler. Per-probe costs sum to the FuncResult's Stats.
	Instructions uint64
}

// FuncResult is the fuzzing result for one API function.
type FuncResult struct {
	Name string
	ID   uint32
	// CrashResistant: every invalid-pointer probe returned gracefully.
	CrashResistant bool
	Probes         []Probe
	// Stats sums the harness processes' VM counters across all probes.
	Stats vm.Stats
}

// Summary aggregates a corpus-wide fuzzing campaign — the first three
// stages of the paper's §V-B funnel.
type Summary struct {
	Total          int // functions in the corpus
	WithPointer    int // functions with ≥1 documented pointer argument
	CrashResistant int // functions surviving the whole battery
	Results        []FuncResult
}

// Fuzzer drives probe campaigns against an API registry.
type Fuzzer struct {
	reg  *winapi.Registry
	seed int64

	// FaultPlan, when non-nil, is attached to every harness process so
	// chaos runs exercise the fuzzer's crash/graceful classification under
	// injected VM faults. Probes stay deterministic: injection is keyed by
	// the harness's virtual clock, which restarts from zero per probe.
	FaultPlan *faultinject.Plan

	// snapshot returns a fork of the booted harness, booting it on the
	// first call. Nothing runs it, so probes fork it concurrently.
	snapshot func() (*vm.Process, error)

	// freshProbes boots a harness for every probe instead of forking
	// the snapshot: the reference path the differential tests set.
	freshProbes bool
}

// New creates a fuzzer over the registry. The seed feeds harness-process
// ASLR only.
func New(reg *winapi.Registry, seed int64) *Fuzzer {
	f := &Fuzzer{reg: reg, seed: seed}
	f.snapshot = sync.OnceValues(func() (*vm.Process, error) {
		boot, err := f.boot(&harnessAPI{reg: reg}, [5]uint64{})
		if err != nil {
			return nil, err
		}
		return boot.Fork()
	})
	return f
}

// FuzzAll probes every pointer-taking function in the registry.
func (f *Fuzzer) FuzzAll() (Summary, error) {
	sum := Summary{Total: f.reg.Len()}
	for _, d := range f.reg.All() {
		if !d.HasPointerArg() {
			continue
		}
		sum.WithPointer++
		res, err := f.FuzzOne(d)
		if err != nil {
			return Summary{}, fmt.Errorf("fuzz %s: %w", d.Name, err)
		}
		if res.CrashResistant {
			sum.CrashResistant++
		}
		sum.Results = append(sum.Results, res)
	}
	return sum, nil
}

// FuzzOne runs the invalid-pointer battery against one function, each
// probe in a fork of the fuzzer's booted harness. It is safe for concurrent
// use.
func (f *Fuzzer) FuzzOne(d *winapi.Descriptor) (FuncResult, error) {
	h := &harnessAPI{reg: f.reg, fn: d}
	probe := f.forkProbe
	if f.freshProbes {
		probe = f.runProbe
	}
	res := FuncResult{Name: d.Name, ID: d.ID, CrashResistant: true}
	for _, ptr := range InvalidPointers {
		outcome, ret, stats, err := probe(h, ptr)
		if err != nil {
			return FuncResult{}, err
		}
		res.Stats.Add(stats)
		res.Probes = append(res.Probes, Probe{Pointer: ptr, Outcome: outcome, Ret: ret, Instructions: stats.Instructions})
		if outcome != OutcomeGraceful {
			res.CrashResistant = false
		}
	}
	return res, nil
}

// harnessAPI is a harness process's API handler: the harness's one import
// resolves to the function under test, fn, which Call runs.
type harnessAPI struct {
	reg *winapi.Registry
	fn  *winapi.Descriptor
}

// Resolve implements vm.APIHandler. Probes run fn whatever the import
// resolved to, so it resolves to 0 for every function.
func (*harnessAPI) Resolve(string) (uint32, error) { return 0, nil }

// Call implements vm.APIHandler by running fn.
func (h *harnessAPI) Call(p *vm.Process, t *vm.Thread, _ uint32) *vm.Exception {
	return h.reg.Call(p, t, h.fn.ID)
}

// probeArgs puts the probe pointer in every documented pointer-argument
// slot of R1..R5 and 1 in the others.
func probeArgs(d *winapi.Descriptor, ptr uint64) [5]uint64 {
	args := [5]uint64{1, 1, 1, 1, 1}
	for _, ai := range d.PtrArgs {
		if ai < len(args) {
			args[ai] = ptr
		}
	}
	return args
}

// boot creates a harness process with API handler h and starts its main
// thread with args in R1..R5. The thread has run nothing yet, and the
// process has no fault plan.
func (f *Fuzzer) boot(h *harnessAPI, args [5]uint64) (*vm.Process, error) {
	img, err := harness()
	if err != nil {
		return nil, err
	}
	p := vm.NewProcess(vm.Config{
		Platform:  vm.PlatformWindows,
		Seed:      f.seed,
		StackSize: 16 * 1024,
	})
	p.API = h
	if _, err := p.LoadImage(img); err != nil {
		return nil, err
	}
	if _, err := p.Start(args[:]...); err != nil {
		return nil, err
	}
	return p, nil
}

// runProbe executes one probe in a harness booted for it alone: the
// reference for forkProbe.
func (f *Fuzzer) runProbe(h *harnessAPI, ptr uint64) (Outcome, uint64, vm.Stats, error) {
	p, err := f.boot(h, probeArgs(h.fn, ptr))
	if err != nil {
		return 0, 0, vm.Stats{}, err
	}
	p.FaultPlan = f.FaultPlan
	outcome, ret := runHarness(p)
	return outcome, ret, p.Stats, nil
}

// forkProbe executes one probe in a fork of the fuzzer's booted harness,
// with h as its API handler and the probe's arguments in the main thread's
// R1..R5.
func (f *Fuzzer) forkProbe(h *harnessAPI, ptr uint64) (Outcome, uint64, vm.Stats, error) {
	snap, err := f.snapshot()
	if err != nil {
		return 0, 0, vm.Stats{}, err
	}
	p, err := snap.Fork()
	if err != nil {
		return 0, 0, vm.Stats{}, err
	}
	p.API, p.FaultPlan = h, f.FaultPlan
	main, _ := p.Thread(0)
	for i, a := range probeArgs(h.fn, ptr) {
		main.SetReg(isa.Register(1+i), a)
	}
	outcome, ret := runHarness(p)
	return outcome, ret, p.Stats, nil
}

// runHarness runs a started harness to its end and classifies the probe.
func runHarness(p *vm.Process) (Outcome, uint64) {
	p.RunUntilIdle(100_000)
	if p.State == vm.ProcExited {
		return OutcomeGraceful, p.ExitCode
	}
	return OutcomeCrash, 0
}

// harness is the one-shot caller every probe runs: the five argument
// registers are seeded by Start, its one import is the function under test,
// and the return value becomes the exit code. It is assembled once per
// process and booted once per fuzzer.
var harness = sync.OnceValues(func() (*bin.Image, error) {
	b := asm.NewBuilder("fuzz-harness.exe", bin.KindExecutable)
	// R0 holds the API return value at HALT, becoming the exit code.
	b.Func("main").Entry("main").
		CallImport("", "function-under-test").
		Halt().
		EndFunc()
	return b.Build()
})
