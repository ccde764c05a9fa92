// Package fuzz implements the black-box Windows-API fuzzer of §IV-B/§V-B:
// it calls every API function that takes a pointer argument (per its
// documented signature) with a battery of invalid pointers and classifies
// the function as crash-resistant when every probe returns gracefully
// instead of faulting.
//
// The fuzzer knows only each function's documented signature (argument
// count and which arguments are pointers — the MSDN-derived information the
// paper used); it never consults the generator's behaviour category. Each
// probe runs in a fresh single-shot harness process so a crash cannot
// poison subsequent probes.
package fuzz

import (
	"fmt"
	"sync"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/faultinject"
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
}

// New creates a fuzzer over the registry. The seed feeds harness-process
// ASLR only.
func New(reg *winapi.Registry, seed int64) *Fuzzer {
	return &Fuzzer{reg: reg, seed: seed}
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

// FuzzOne runs the invalid-pointer battery against one function.
func (f *Fuzzer) FuzzOne(d *winapi.Descriptor) (FuncResult, error) {
	img, err := harnessImage(d)
	if err != nil {
		return FuncResult{}, err
	}
	res := FuncResult{Name: d.Name, ID: d.ID, CrashResistant: true}
	for _, ptr := range InvalidPointers {
		outcome, ret, stats, err := f.runProbe(img, d, ptr)
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

// runProbe executes one harness run with the probe pointer in every
// documented pointer-argument slot.
func (f *Fuzzer) runProbe(img *bin.Image, d *winapi.Descriptor, ptr uint64) (Outcome, uint64, vm.Stats, error) {
	p := vm.NewProcess(vm.Config{
		Platform:  vm.PlatformWindows,
		Seed:      f.seed,
		StackSize: 16 * 1024,
		FaultPlan: f.FaultPlan,
	})
	p.API = f.reg
	if _, err := p.LoadImage(img); err != nil {
		return 0, 0, vm.Stats{}, err
	}

	args := make([]uint64, 5)
	isPtr := make(map[int]bool, len(d.PtrArgs))
	for _, ai := range d.PtrArgs {
		isPtr[ai] = true
	}
	for i := 0; i < 5; i++ {
		if isPtr[i] {
			args[i] = ptr
		} else {
			args[i] = 1
		}
	}
	if _, err := p.Start(args...); err != nil {
		return 0, 0, vm.Stats{}, err
	}
	p.RunUntilIdle(100_000)
	switch p.State {
	case vm.ProcExited:
		return OutcomeGraceful, p.ExitCode, p.Stats, nil
	default:
		return OutcomeCrash, 0, p.Stats, nil
	}
}

// harness is the one-shot caller every probe runs: the five argument
// registers are seeded by Start, import slot 0 is the function under test,
// and the return value becomes the exit code. It is assembled once; every
// function's harness image shares its text and predecoded table.
var harness = sync.OnceValues(func() (*bin.Image, error) {
	b := asm.NewBuilder("fuzz-harness.exe", bin.KindExecutable)
	// R0 holds the API return value at HALT, becoming the exit code.
	b.Func("main").Entry("main").
		CallImport("", "function-under-test").
		Halt().
		EndFunc()
	return b.Build()
})

// harnessImage returns the harness importing d as its one import.
func harnessImage(d *winapi.Descriptor) (*bin.Image, error) {
	img, err := harness()
	if err != nil {
		return nil, err
	}
	return img.WithImports([]bin.Import{{Symbol: d.Name}}), nil
}
