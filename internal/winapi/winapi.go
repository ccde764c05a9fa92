// Package winapi implements the Windows-model platform API layer: a
// registry of API function descriptors with per-category runtime behaviour,
// and a deterministic corpus generator reproducing the population the paper
// fuzzed (§V-B: 20,672 documented functions, 11,521 with at least one
// pointer argument, 400 of which handle invalid pointers gracefully).
//
// The behavioural split models the paper's observation about the Windows
// API: some functions hand user pointers straight to the kernel, which
// validates them and reports an error status (crash-resistant); most
// preprocess arguments in their user-space stub, where a bad pointer simply
// faults in user mode (not crash-resistant).
//
// The category is generator metadata. The discovery pipeline never reads
// it — the fuzzer classifies functions purely by calling them and observing
// the outcome, exactly like the paper's black-box API fuzzer.
package winapi

import (
	"fmt"
	"math/rand"
	"strconv"

	"crashresist/internal/mem"
	"crashresist/internal/vm"
)

// Category describes how an API treats pointer arguments at runtime.
type Category uint8

// Categories.
const (
	// CatNoPointer: no pointer arguments at all.
	CatNoPointer Category = iota + 1
	// CatKernelValidated: pointers are validated kernel-side; invalid
	// ones yield ErrInvalidPointer without any user-mode fault.
	CatKernelValidated
	// CatQueryStruct: like CatKernelValidated, but the function's purpose
	// is filling a caller-provided result structure (the
	// GetPwrCapabilities shape) — callers overwhelmingly pass stack
	// storage, which matters for the controllability analysis.
	CatQueryStruct
	// CatUserDeref: the user-space stub dereferences a pointer argument
	// before reaching the kernel; invalid pointers fault in user mode.
	CatUserDeref
)

// String renders the category.
func (c Category) String() string {
	switch c {
	case CatNoPointer:
		return "no-pointer"
	case CatKernelValidated:
		return "kernel-validated"
	case CatQueryStruct:
		return "query-struct"
	case CatUserDeref:
		return "user-deref"
	default:
		return "category?"
	}
}

// Status values returned in R0 by API calls.
const (
	StatusOK            uint64 = 0
	ErrInvalidPointer   uint64 = 998 // ERROR_NOACCESS
	ErrInvalidParameter uint64 = 87
	structProbeSize            = 16 // bytes read/written through pointer args
)

// Descriptor describes one API function.
type Descriptor struct {
	ID   uint32
	Name string
	// NArgs is the argument count (max 5, passed in R1..R5).
	NArgs int
	// PtrArgs holds the zero-based indices of pointer arguments.
	PtrArgs []int
	// Cat is generator metadata; analyses must not consult it (the
	// fuzzer discovers behaviour black-box).
	Cat Category
	// Writes reports whether the pointer args are written (out-params)
	// rather than read.
	Writes bool
}

// HasPointerArg reports whether the function takes at least one pointer.
func (d *Descriptor) HasPointerArg() bool { return len(d.PtrArgs) > 0 }

// NativeFunc is a special-cased API implementation (e.g. Sleep,
// AddVectoredExceptionHandler) that needs behaviour beyond the category
// model. It may block the thread or return a user-mode exception.
type NativeFunc func(p *vm.Process, t *vm.Thread) *vm.Exception

// Registry maps API ids/names to descriptors and implements vm.APIHandler.
// A registry may be layered over a read-only base (Extend): it answers for
// the base's functions and numbers its own after them.
type Registry struct {
	base *Registry
	// byID holds the functions this layer numbered, in id order: the
	// last has id nextID-1.
	byID    []*Descriptor
	byName  map[string]*Descriptor
	natives map[uint32]NativeFunc
	nextID  uint32
}

var _ vm.APIHandler = (*Registry)(nil)

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return newRegistry(0) }

// newRegistry creates an empty registry with room for n functions.
func newRegistry(n int) *Registry {
	return &Registry{
		byID:    make([]*Descriptor, 0, n),
		byName:  make(map[string]*Descriptor, n),
		natives: make(map[uint32]NativeFunc),
		nextID:  1,
	}
}

// extendRoom is the room a layer starts with: enough for the natives an
// environment layers over its corpus.
const extendRoom = 8

// Extend returns an empty registry layered over r. The layer answers every
// query for r's functions as r does, and numbers the functions registered in
// it after r's, so it numbers, names and orders everything exactly as
// registering the same functions into r would. r must not change
// afterwards; any number of layers may share it across goroutines.
func (r *Registry) Extend() *Registry {
	l := newRegistry(extendRoom)
	l.base = r
	l.nextID = r.nextID
	return l
}

// layer returns the registry layer that numbered id.
func (r *Registry) layer(id uint32) *Registry {
	for r.base != nil && id < r.base.nextID {
		r = r.base
	}
	return r
}

// own returns the descriptor this layer numbered id; id 0 and ids this
// layer did not number are unknown.
func (r *Registry) own(id uint32) (*Descriptor, bool) {
	first := r.nextID - uint32(len(r.byID))
	if id < first || id >= r.nextID {
		return nil, false
	}
	return r.byID[id-first], true
}

// RegisterNative adds an API backed by a custom implementation. The
// descriptor's category is ignored at call time.
func (r *Registry) RegisterNative(d Descriptor, fn NativeFunc) *Descriptor {
	nd := r.Register(d)
	r.natives[nd.ID] = fn
	return nd
}

// Register adds a descriptor, assigning its ID.
func (r *Registry) Register(d Descriptor) *Descriptor {
	d.ID = r.nextID
	r.nextID++
	nd := new(Descriptor)
	*nd = d
	r.byID = append(r.byID, nd)
	r.byName[nd.Name] = nd
	return nd
}

// Lookup returns a descriptor by name. A name registered in a layer shadows
// the same name in its base, as a later registration does.
func (r *Registry) Lookup(name string) (*Descriptor, bool) {
	for ; r != nil; r = r.base {
		if d, ok := r.byName[name]; ok {
			return d, true
		}
	}
	return nil, false
}

// ByID returns a descriptor by id.
func (r *Registry) ByID(id uint32) (*Descriptor, bool) {
	return r.layer(id).own(id)
}

// All returns every descriptor in id order.
func (r *Registry) All() []*Descriptor {
	out := make([]*Descriptor, 0, r.Len())
	for id := uint32(1); id < r.nextID; id++ {
		if d, ok := r.ByID(id); ok {
			out = append(out, d)
		}
	}
	return out
}

// Len returns the number of registered functions.
func (r *Registry) Len() int {
	n := 0
	for ; r != nil; r = r.base {
		n += len(r.byID)
	}
	return n
}

// Resolve implements vm.APIHandler.
func (r *Registry) Resolve(symbol string) (uint32, error) {
	d, ok := r.Lookup(symbol)
	if !ok {
		return 0, fmt.Errorf("winapi: unknown API %q", symbol)
	}
	return d.ID, nil
}

// Call implements vm.APIHandler: runs the API's category behaviour.
func (r *Registry) Call(p *vm.Process, t *vm.Thread, id uint32) *vm.Exception {
	l := r.layer(id)
	d, ok := l.own(id)
	if !ok {
		t.SetReg(0, ErrInvalidParameter)
		return nil
	}
	if fn, isNative := l.natives[id]; isNative {
		return fn(p, t)
	}
	switch d.Cat {
	case CatNoPointer:
		// Pure computation; deterministic token result.
		t.SetReg(0, StatusOK)
		return nil

	case CatKernelValidated, CatQueryStruct:
		for _, ai := range d.PtrArgs {
			ptr := t.Regs[1+ai]
			access := mem.AccessRead
			if d.Writes {
				access = mem.AccessWrite
			}
			if !p.AS.Accessible(ptr, structProbeSize, access) {
				t.SetReg(0, ErrInvalidPointer)
				return nil
			}
		}
		// Touch the memory kernel-side (cannot fault: just checked).
		for _, ai := range d.PtrArgs {
			ptr := t.Regs[1+ai]
			if d.Writes {
				// Fill the result struct with a recognizable
				// pattern derived from the API id.
				for i := 0; i < structProbeSize; i += 8 {
					_ = p.AS.WriteUint(ptr+uint64(i), 8, uint64(d.ID)<<8|uint64(i))
				}
				if p.Flow != nil {
					p.Flow.ClearMem(ptr, structProbeSize)
				}
			} else {
				_, _ = p.AS.ReadUint(ptr, 8)
			}
		}
		t.SetReg(0, StatusOK)
		return nil

	case CatUserDeref:
		// The user-space stub touches the first pointer argument
		// before any kernel validation; a bad pointer faults in user
		// mode, subject to the caller's exception handlers.
		if len(d.PtrArgs) == 0 {
			t.SetReg(0, StatusOK)
			return nil
		}
		ptr := t.Regs[1+d.PtrArgs[0]]
		access := mem.AccessRead
		if d.Writes {
			access = mem.AccessWrite
		}
		if err := p.AS.Check(ptr, 8, access); err != nil {
			f, _ := err.(*mem.Fault)
			exc := &vm.Exception{
				Code:   vm.ExcAccessViolation,
				Addr:   ptr,
				Access: access,
			}
			if f != nil {
				exc.Addr = f.Addr
				exc.Unmapped = f.Unmapped
			}
			return exc
		}
		if d.Writes {
			_ = p.AS.WriteUint(ptr, 8, uint64(d.ID))
			if p.Flow != nil {
				p.Flow.ClearMem(ptr, 8)
			}
		} else {
			_, _ = p.AS.ReadUint(ptr, 8)
		}
		t.SetReg(0, StatusOK)
		return nil

	default:
		t.SetReg(0, ErrInvalidParameter)
		return nil
	}
}

// CorpusParams sizes the generated API population; the defaults reproduce
// the paper's §V-B counts.
type CorpusParams struct {
	Seed int64
	// Total API functions ("extracted from the MSDN library").
	Total int
	// WithPointer is how many take at least one pointer argument.
	WithPointer int
	// CrashResistant is how many of the pointer-taking functions survive
	// invalid pointers gracefully (kernel-validated + query-struct).
	CrashResistant int
	// QueryStructShare of the crash-resistant population is of the
	// query-struct shape (numerator over denominator 100).
	QueryStructShare int
}

// DefaultCorpusParams returns the paper's §V-B population sizes.
func DefaultCorpusParams() CorpusParams {
	return CorpusParams{
		Seed:             1701,
		Total:            20672,
		WithPointer:      11521,
		CrashResistant:   400,
		QueryStructShare: 60,
	}
}

// GenerateCorpus builds a registry with the parameterized population. The
// assignment of names to categories is deterministic in the seed.
func GenerateCorpus(params CorpusParams) (*Registry, error) {
	if params.WithPointer > params.Total || params.CrashResistant > params.WithPointer {
		return nil, fmt.Errorf("winapi: inconsistent corpus params %+v", params)
	}
	rng := rand.New(rand.NewSource(params.Seed))
	r := newRegistry(params.Total)

	// Category assignment over the pointer-taking population: the first
	// CrashResistant slots (after shuffling) are graceful, the rest
	// fault in user mode.
	cats := make([]Category, params.WithPointer)
	for i := range cats {
		switch {
		case i < params.CrashResistant*params.QueryStructShare/100:
			cats[i] = CatQueryStruct
		case i < params.CrashResistant:
			cats[i] = CatKernelValidated
		default:
			cats[i] = CatUserDeref
		}
	}
	rng.Shuffle(len(cats), func(i, j int) { cats[i], cats[j] = cats[j], cats[i] })

	ptrIdx := 0
	for i := 0; i < params.Total; i++ {
		d := Descriptor{
			Name:  apiName(rng, i),
			NArgs: 1 + rng.Intn(5),
		}
		if i < params.WithPointer {
			d.Cat = cats[ptrIdx]
			ptrIdx++
			nPtr := 1 + rng.Intn(2)
			if nPtr > d.NArgs {
				nPtr = d.NArgs
			}
			var seen [5]bool // NArgs is at most 5
			for len(d.PtrArgs) < nPtr {
				ai := rng.Intn(d.NArgs)
				if !seen[ai] {
					seen[ai] = true
					d.PtrArgs = append(d.PtrArgs, ai)
				}
			}
			d.Writes = d.Cat == CatQueryStruct || rng.Intn(2) == 0
		} else {
			d.Cat = CatNoPointer
		}
		r.Register(d)
	}
	return r, nil
}

// The parts of generated API names.
var (
	nameVerbs = [...]string{"Get", "Set", "Query", "Create", "Open", "Close", "Enum", "Read", "Write", "Register"}
	nameNouns = [...]string{"Pwr", "File", "Window", "Registry", "Thread", "Process", "Token", "Device", "Service", "Timer"}
	nameTails = [...]string{"Info", "State", "Capabilities", "Attributes", "Ex", "Data", "Context", "Config", "Status", "Entry"}
)

// apiName produces a plausible deterministic API name: a verb, a noun and
// a tail drawn in that order, then i zero-padded to five digits.
func apiName(rng *rand.Rand, i int) string {
	b := make([]byte, 0, 40) // the longest parts take 28 bytes
	b = append(b, nameVerbs[rng.Intn(len(nameVerbs))]...)
	b = append(b, nameNouns[rng.Intn(len(nameNouns))]...)
	b = append(b, nameTails[rng.Intn(len(nameTails))]...)
	for p := 10000; p > 1 && i < p; p /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(i), 10))
}
