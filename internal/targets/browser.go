package targets

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/isa"
	"crashresist/internal/mem"
	"crashresist/internal/vm"
	"crashresist/internal/winapi"
)

// JS-wrapper argument shapes, determining why the pointer argument is (not)
// controllable — the three exclusion reasons of §V-B.
const (
	// ShapeStack: the wrapper passes a stack-allocated structure.
	ShapeStack = iota + 1
	// ShapeDerefOutside: the pointer lives in a writable object, but the
	// wrapper also dereferences it outside the API call.
	ShapeDerefOutside
	// ShapeVolatile: the pointer is a freshly computed value with no
	// stored reference anywhere in memory.
	ShapeVolatile
)

// JSAPISite is one API reachable from the scripting context.
type JSAPISite struct {
	API     string
	Wrapper string // jscript9 export
	Shape   int
}

// BrowserParams sizes a browser model.
type BrowserParams struct {
	Corpus CorpusParams
	API    winapi.CorpusParams
	// TriggerTotal guarded-location executions during one browse run
	// (736,512 in the paper).
	TriggerTotal int
	// OnPathAPIs crash-resistant API functions appear on the browse
	// execution path (25 in the paper); JSContextAPIs of them are called
	// from the script engine (12 in the paper).
	OnPathAPIs    int
	JSContextAPIs int
	// NoisePathAPIs non-crash-resistant APIs also called during browse.
	NoisePathAPIs int
	Seed          int64
}

// PaperBrowserParams returns the full-scale evaluation sizing.
func PaperBrowserParams() BrowserParams {
	return BrowserParams{
		Corpus:        PaperCorpusParams(),
		API:           winapi.DefaultCorpusParams(),
		TriggerTotal:  736512,
		OnPathAPIs:    25,
		JSContextAPIs: 12,
		NoisePathAPIs: 60,
		Seed:          2024,
	}
}

// SmallBrowserParams returns a test-scale sizing.
func SmallBrowserParams() BrowserParams {
	return BrowserParams{
		Corpus: SmallCorpusParams(),
		API: winapi.CorpusParams{
			Seed: 31, Total: 120, WithPointer: 80,
			CrashResistant: 14, QueryStructShare: 50,
		},
		TriggerTotal:  200,
		OnPathAPIs:    6,
		JSContextAPIs: 4,
		NoisePathAPIs: 5,
		Seed:          2025,
	}
}

// Browser is a buildable browser target.
type Browser struct {
	Name   string
	Params BrowserParams
	Plan   *CorpusPlan
	// JSAPIs are the script-reachable crash-resistant APIs with their
	// wrapper shapes; PathAPIs is the full on-path crash-resistant set.
	JSAPIs   []JSAPISite
	PathAPIs []string

	images []*bin.Image
	exe    *bin.Image
	// apis is the generated API corpus. It is read-only once the
	// browser is built: every environment layers its natives over it.
	apis *winapi.Registry

	digestOnce sync.Once
	digest     []byte
	digestErr  error
}

// ContentDigest returns a digest over every loaded image's marshaled bytes
// (DLL corpus, support libraries, executable) in load order. It is the
// content-hash input for whole-process cache keys: any changed byte in any
// module changes the digest. Computed once and memoized.
func (br *Browser) ContentDigest() ([]byte, error) {
	br.digestOnce.Do(func() {
		h := sha256.New()
		h.Write([]byte(br.Name))
		for _, img := range append(append([]*bin.Image{}, br.images...), br.exe) {
			data, err := bin.Marshal(img)
			if err != nil {
				br.digestErr = fmt.Errorf("digest %s: %w", img.Name, err)
				return
			}
			var n [8]byte
			binary.BigEndian.PutUint64(n[:], uint64(len(data)))
			h.Write(n[:])
			h.Write(data)
		}
		br.digest = h.Sum(nil)
	})
	return br.digest, br.digestErr
}

// APIs returns the browser's generated API corpus, without the natives an
// environment adds. It is shared and read-only: extend it (Extend) rather
// than registering into it.
func (br *Browser) APIs() *winapi.Registry { return br.apis }

// BrowserEnv is one instantiated browser process.
type BrowserEnv struct {
	Proc    *vm.Process
	Reg     *winapi.Registry
	Browser *Browser
	// GuardPage is the Firefox model's protected (mapped, no-access)
	// page; zero for IE.
	GuardPage uint64

	// tempBase is the page JsAllocTemp returns, zero until its first
	// call.
	tempBase uint64
	// paused is the browse an environment forked from a BrowseSnapshot
	// resumes.
	paused *pausedCall
}

// pausedCall is a Call paused before one of its Run slices: the thread
// running it and the slice's number.
type pausedCall struct {
	module, symbol string
	tid, iter      int
}

// IE builds the Internet Explorer 11 model.
func IE(params BrowserParams) (*Browser, error) { return buildBrowser("iexplore", params) }

// Firefox builds the Firefox 46 model.
func Firefox(params BrowserParams) (*Browser, error) { return buildBrowser("firefox", params) }

// buildBrowser constructs the DLL corpus, the script-engine glue, the
// browser executable and its browse workload.
func buildBrowser(name string, params BrowserParams) (*Browser, error) {
	apiReg, err := winapi.GenerateCorpus(params.API)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	jsAPIs, pathAPIs, noiseAPIs, err := chooseAPIs(apiReg, params)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	// Merge the script-engine glue with any caller-provided extensions
	// (the incremental-cache tests mutate individual DLLs this way), so
	// a caller extension of jscript9.dll composes with the JS wrappers
	// instead of replacing them.
	corpus := params.Corpus
	ext := make(map[string]func(*asm.Builder), len(corpus.Extend)+1)
	for name, fn := range corpus.Extend {
		ext[name] = fn
	}
	userJS := ext["jscript9.dll"]
	ext["jscript9.dll"] = func(b *asm.Builder) {
		if userJS != nil {
			userJS(b)
		}
		emitJSWrappers(b, apiReg, jsAPIs)
	}
	corpus.Extend = ext
	images, plan, err := BuildSysDLLs(corpus)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	br := &Browser{
		Name:     name,
		Params:   params,
		Plan:     plan,
		JSAPIs:   jsAPIs,
		PathAPIs: pathAPIs,
		images:   images,
		apis:     apiReg,
	}

	if name == "firefox" {
		xul, err := buildXul()
		if err != nil {
			return nil, err
		}
		br.images = append(br.images, xul)
	}

	exe, err := buildBrowserExe(name, apiReg, br, noiseAPIs)
	if err != nil {
		return nil, err
	}
	br.exe = exe
	return br, nil
}

// chooseAPIs deterministically selects the on-path crash-resistant APIs,
// the JS-context subset with wrapper shapes, and the noise set.
func chooseAPIs(reg *winapi.Registry, params BrowserParams) (js []JSAPISite, path, noise []string, err error) {
	var resistant, userDeref []string
	for _, d := range reg.All() {
		switch d.Cat {
		case winapi.CatKernelValidated, winapi.CatQueryStruct:
			resistant = append(resistant, d.Name)
		case winapi.CatUserDeref:
			userDeref = append(userDeref, d.Name)
		}
	}
	sort.Strings(resistant)
	sort.Strings(userDeref)
	if len(resistant) < params.OnPathAPIs || params.JSContextAPIs > params.OnPathAPIs {
		return nil, nil, nil, fmt.Errorf("api corpus too small for params")
	}
	path = resistant[:params.OnPathAPIs]
	nStack := params.JSContextAPIs * 5 / 12
	nDeref := params.JSContextAPIs * 4 / 12
	if nStack == 0 && params.JSContextAPIs > 0 {
		nStack = 1
	}
	if nDeref == 0 && params.JSContextAPIs > 1 {
		nDeref = 1
	}
	for i := 0; i < params.JSContextAPIs; i++ {
		shape := ShapeVolatile
		switch {
		case i < nStack:
			shape = ShapeStack
		case i < nStack+nDeref:
			shape = ShapeDerefOutside
		}
		js = append(js, JSAPISite{
			API:     path[i],
			Wrapper: fmt.Sprintf("js_api_%02d", i),
			Shape:   shape,
		})
	}
	n := params.NoisePathAPIs
	if n > len(userDeref) {
		n = len(userDeref)
	}
	noise = userDeref[:n]
	return js, path, noise, nil
}

// emitJSWrappers writes the script-engine entry points that reach the
// JS-context APIs, one per site, with the shape that determines
// controllability.
func emitJSWrappers(b *asm.Builder, reg *winapi.Registry, sites []JSAPISite) {
	for i, site := range sites {
		d, ok := reg.Lookup(site.API)
		if !ok {
			continue
		}
		isPtr := make(map[int]bool, len(d.PtrArgs))
		for _, ai := range d.PtrArgs {
			isPtr[ai] = true
		}
		b.Func(site.Wrapper)
		switch site.Shape {
		case ShapeStack:
			// Stack-allocated result structure.
			b.SubRI(isa.SP, 64)
			for ai := 0; ai < 5; ai++ {
				r := isa.Register(1 + ai)
				if isPtr[ai] {
					b.MovRR(r, isa.SP)
				} else {
					b.MovRI(r, 1)
				}
			}
			b.CallImport("", site.API)
			b.AddRI(isa.SP, 64)
		case ShapeDerefOutside:
			objPtr := fmt.Sprintf("jsobj_ptr_%02d", i)
			objBuf := fmt.Sprintf("jsobj_buf_%02d", i)
			b.DataPtr(objPtr, objBuf)
			b.BSS(objBuf, 64)
			b.LeaData(isa.R10, objPtr).Load(8, isa.R11, isa.R10, 0)
			for ai := 0; ai < 5; ai++ {
				r := isa.Register(1 + ai)
				if isPtr[ai] {
					b.MovRR(r, isa.R11)
				} else {
					b.MovRI(r, 1)
				}
			}
			b.CallImport("", site.API)
			// The engine updates the object through the same
			// pointer after the call — the user-mode dereference
			// outside the crash-resistant function.
			b.LeaData(isa.R10, objPtr).
				Load(8, isa.R11, isa.R10, 0).
				MovRI(isa.R12, 0).
				Store(8, isa.R11, 0, isa.R12)
		default: // ShapeVolatile
			b.CallImport("", "JsAllocTemp").
				MovRR(isa.R11, isa.R0)
			for ai := 0; ai < 5; ai++ {
				r := isa.Register(1 + ai)
				if isPtr[ai] {
					b.MovRR(r, isa.R11)
				} else {
					b.MovRI(r, 1)
				}
			}
			b.CallImport("", site.API)
		}
		b.Ret().EndFunc()
		b.Export(site.Wrapper, site.Wrapper)
	}
}

// buildXul writes the Firefox support library: the background probing
// worker around ntdll!RtlSafeRead, the asm.js guard-page machinery and its
// vectored handler.
func buildXul() (*bin.Image, error) {
	b := asm.NewBuilder("xul.dll", bin.KindLibrary)

	// Background worker: poll probe_slot; when set, probe it via the
	// guarded ntdll helper, publish the result, clear the slot, nap.
	b.Func("ff_worker")
	b.Label("ffw_loop")
	b.LeaData(isa.R10, "probe_slot").
		Load(8, isa.R1, isa.R10, 0).
		TestRR(isa.R1, isa.R1).
		Jnz("ffw_probe")
	b.MovRI(isa.R1, 1000) // nap 1000 ticks
	b.CallImport("", "Sleep")
	b.Jmp("ffw_loop")
	b.Label("ffw_probe")
	b.CallImport("ntdll.dll", "RtlSafeRead")
	b.LeaData(isa.R11, "probe_result").
		Store(8, isa.R11, 0, isa.R0).
		LeaData(isa.R10, "probe_slot").
		MovRI(isa.R12, 0).
		Store(8, isa.R10, 0, isa.R12)
	b.Jmp("ffw_loop")
	b.EndFunc()
	b.Export("ff_worker", "ff_worker")
	b.BSS("probe_slot", 8)
	b.BSS("probe_result", 8)
	b.Export("probe_slot", "probe_slot")
	b.Export("probe_result", "probe_result")

	// asm.js: bursts of expected guard-page faults, resolved by the VEH.
	// asmjs_run(R1 = burst size): performs R1 stores into the protected
	// page; each faults and is skipped by the vectored handler.
	b.Func("asmjs_run")
	b.MovRR(isa.R3, isa.R1)
	b.LeaData(isa.R4, "guard_region").
		AddRI(isa.R4, int32(mem.PageSize-1)).
		AndRI(isa.R4, -int32(mem.PageSize)) // aligned guard page
	b.Label("aj_loop")
	b.Store(8, isa.R4, 0, isa.R3) // faults; VEH skips
	b.SubRI(isa.R3, 1).
		TestRR(isa.R3, isa.R3).
		Jnz("aj_loop")
	b.Ret()
	b.EndFunc()
	b.Export("asmjs_run", "asmjs_run")

	// The vectored handler: resolve faults inside the guard page,
	// decline everything else.
	b.Func("asmjs_veh")
	b.LeaData(isa.R4, "guard_region").
		AddRI(isa.R4, int32(mem.PageSize-1)).
		AndRI(isa.R4, -int32(mem.PageSize))
	b.CmpRR(isa.R2, isa.R4).
		Jb("veh_decline")
	b.MovRR(isa.R5, isa.R4).
		AddRI(isa.R5, int32(mem.PageSize)).
		CmpRR(isa.R2, isa.R5).
		Jae("veh_decline")
	b.MovRI(isa.R0, 0).Not(isa.R0).Ret() // -1: continue execution
	b.Label("veh_decline")
	b.MovRI(isa.R0, 0).Ret()
	b.EndFunc()
	b.Export("asmjs_veh", "asmjs_veh")
	b.BSS("guard_region", 2*mem.PageSize)
	b.Export("guard_region", "guard_region")

	return b.Build()
}

// buildBrowserExe writes the browser executable: main registers the
// vectored handler and starts the background worker (Firefox), then idles;
// the exported browse function drives the whole workload.
func buildBrowserExe(name string, reg *winapi.Registry, br *Browser, noiseAPIs []string) (*bin.Image, error) {
	b := asm.NewBuilder(name+".exe", bin.KindExecutable)

	b.Func("main").Entry("main")
	if name == "firefox" {
		// Register the run-time vectored handler (invisible to the
		// static pipeline) and start the probing worker thread.
		b.LeaData(isa.R1, "veh_ptr").
			Load(8, isa.R1, isa.R1, 0).
			CallImport("", "AddVectoredExceptionHandler")
		b.LeaData(isa.R1, "worker_ptr").
			Load(8, isa.R1, isa.R1, 0).
			MovRI(isa.R2, 0).
			CallImport("", "CreateThread")
	}
	b.Label("idle")
	b.MovRI(isa.R1, 100_000)
	b.CallImport("", "Sleep")
	b.Jmp("idle")
	b.EndFunc()

	// browse: the deterministic Alexa-500 stand-in. Executes every
	// corpus site with its trigger count, the JS wrappers, the non-JS
	// crash-resistant APIs, and the noise APIs.
	nSites := len(br.Plan.Sites)
	per, rem := 0, 0
	if nSites > 0 {
		per, rem = br.Params.TriggerTotal/nSites, br.Params.TriggerTotal%nSites
	}
	b.Func("browse")
	for i, site := range br.Plan.Sites {
		count := per
		if i < rem {
			count++
		}
		if count <= 0 {
			count = 1
		}
		b.MovRI(isa.R1, uint64(count))
		b.CallImport(site.Module, site.Export)
	}
	for _, js := range br.JSAPIs {
		b.MovRI(isa.R1, 1)
		b.CallImport("jscript9.dll", js.Wrapper)
	}
	jsSet := make(map[string]bool, len(br.JSAPIs))
	for _, js := range br.JSAPIs {
		jsSet[js.API] = true
	}
	for _, api := range br.PathAPIs {
		if jsSet[api] {
			continue
		}
		emitValidAPICall(b, reg, api)
	}
	for _, api := range noiseAPIs {
		emitValidAPICall(b, reg, api)
	}
	b.Ret()
	b.EndFunc()
	b.Export("browse", "browse")
	b.BSS("api_scratch", 128)

	if name == "firefox" {
		// Cross-module data pointers are not expressible as load-time
		// relocations, so the registered handler and worker entry are
		// local thunks that tail into xul through the import table.
		b.Func("veh_thunk").CallImport("xul.dll", "asmjs_veh").Ret().EndFunc()
		b.Func("worker_thunk").CallImport("xul.dll", "ff_worker").Ret().EndFunc()
		b.DataPtr("veh_ptr", "veh_thunk")
		b.DataPtr("worker_ptr", "worker_thunk")
	}

	return b.Build()
}

// emitValidAPICall calls an API with every pointer argument aimed at the
// executable's scratch buffer.
func emitValidAPICall(b *asm.Builder, reg *winapi.Registry, api string) {
	d, ok := reg.Lookup(api)
	if !ok {
		return
	}
	isPtr := make(map[int]bool, len(d.PtrArgs))
	for _, ai := range d.PtrArgs {
		isPtr[ai] = true
	}
	for ai := 0; ai < 5; ai++ {
		r := isa.Register(1 + ai)
		if isPtr[ai] {
			b.LeaData(r, "api_scratch")
		} else {
			b.MovRI(r, 1)
		}
	}
	b.CallImport("", api)
}

// NewEnv instantiates the browser: a Windows-model process with the API
// registry (the browser's corpus with this environment's natives layered
// over it), all DLLs and the executable loaded, main started and idling.
func (br *Browser) NewEnv(seed int64) (*BrowserEnv, error) {
	p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: seed})
	reg := br.apis.Extend()
	env := &BrowserEnv{Proc: p, Reg: reg, Browser: br}
	registerBrowserNatives(reg, env)
	p.API = reg

	for _, img := range br.images {
		if _, err := p.LoadImage(img); err != nil {
			return nil, fmt.Errorf("%s: %w", br.Name, err)
		}
	}
	if _, err := p.LoadImage(br.exe); err != nil {
		return nil, fmt.Errorf("%s: %w", br.Name, err)
	}

	if br.Name == "firefox" {
		// Seal the asm.js guard page: mapped but inaccessible.
		mod, _ := p.Module("xul.dll")
		off, ok := mod.Image.Export("guard_region")
		if !ok {
			return nil, fmt.Errorf("xul has no guard region")
		}
		base := (mod.VA(off) + mem.PageSize - 1) &^ uint64(mem.PageSize-1)
		if err := p.AS.Protect(base, mem.PageSize, 0); err != nil {
			return nil, err
		}
		env.GuardPage = base
	}
	return env, nil
}

// Start boots main (registering VEH / worker on Firefox) and lets it idle.
func (e *BrowserEnv) Start() error {
	if _, err := e.Proc.Start(); err != nil {
		return err
	}
	e.Proc.Run(1_000_000)
	if e.Proc.State == vm.ProcCrashed {
		return fmt.Errorf("%s crashed at startup: %v", e.Browser.Name, e.Proc.Crash)
	}
	return nil
}

// Alive reports whether the browser process has not crashed or exited.
func (e *BrowserEnv) Alive() bool { return e.Proc.Alive() }

// ExportVA resolves module!symbol to a virtual address.
func (e *BrowserEnv) ExportVA(module, symbol string) (uint64, error) {
	mod, ok := e.Proc.Module(module)
	if !ok {
		return 0, fmt.Errorf("module %q not loaded", module)
	}
	off, ok := mod.Image.Export(symbol)
	if !ok {
		return 0, fmt.Errorf("%s does not export %q", module, symbol)
	}
	return mod.VA(off), nil
}

// Call runs module!symbol(args...) on a fresh thread to completion and
// returns its R0. The process must survive the call.
func (e *BrowserEnv) Call(module, symbol string, args ...uint64) (uint64, error) {
	c, err := e.startCall(module, symbol, args...)
	if err != nil {
		return 0, err
	}
	return e.runCall(c, nil)
}

// startCall starts module!symbol(args...) on a fresh thread.
func (e *BrowserEnv) startCall(module, symbol string, args ...uint64) (pausedCall, error) {
	va, err := e.ExportVA(module, symbol)
	if err != nil {
		return pausedCall{}, err
	}
	t, err := e.Proc.StartThread(symbol, va, args...)
	if err != nil {
		return pausedCall{}, err
	}
	return pausedCall{module: module, symbol: symbol, tid: t.ID}, nil
}

// runCall runs the process in Run slices of a million ticks, numbered on
// from c.iter, until c's thread is done. before, when set, sees each
// slice's number before the slice runs.
func (e *BrowserEnv) runCall(c pausedCall, before func(iter int) error) (uint64, error) {
	t, ok := e.Proc.Thread(c.tid)
	if !ok {
		return 0, fmt.Errorf("%s!%s: no thread %d", c.module, c.symbol, c.tid)
	}
	for iter := c.iter; t.State != vm.ThreadDone && e.Proc.Alive(); iter++ {
		if iter > 10_000 {
			return 0, fmt.Errorf("%s!%s: run budget exhausted", c.module, c.symbol)
		}
		if before != nil {
			if err := before(iter); err != nil {
				return 0, err
			}
		}
		res := e.Proc.Run(1_000_000)
		if res.State == vm.ProcIdle && t.State != vm.ThreadDone {
			return 0, fmt.Errorf("%s!%s deadlocked", c.module, c.symbol)
		}
	}
	if !e.Proc.Alive() {
		return 0, fmt.Errorf("%s died during %s!%s: %v", e.Browser.Name, c.module, c.symbol, e.Proc.Crash)
	}
	return t.Reg(isa.R0), nil
}

// Browse runs one full browse workload.
func (e *BrowserEnv) Browse() error {
	_, err := e.Call(e.Browser.Name+".exe", "browse")
	return err
}

// Fork returns a copy of the environment whose process continues exactly
// as e's would (vm.Process.Fork), with a registry of its own so that its
// natives act on the copy. It writes nothing to e that vm.Process.Fork
// does not.
func (e *BrowserEnv) Fork() (*BrowserEnv, error) {
	p, err := e.Proc.Fork()
	if err != nil {
		return nil, err
	}
	reg := e.Browser.apis.Extend()
	f := &BrowserEnv{Proc: p, Reg: reg, Browser: e.Browser, GuardPage: e.GuardPage, tempBase: e.tempBase, paused: e.paused}
	registerBrowserNatives(reg, f)
	p.API = reg
	return f, nil
}

// BrowseSnapshot is a browse paused at the start of one of its Run slices:
// a fork of the browsing environment taken there. Nothing runs a snapshot,
// and forking it writes nothing to it, so any number of goroutines may
// fork one snapshot at once.
type BrowseSnapshot struct {
	env *BrowserEnv
}

// BrowseSnapshots runs one full browse as Browse does, and before each of
// its Run slices hands each the slice's number, counted from zero, and a
// snapshot of the environment there.
func (e *BrowserEnv) BrowseSnapshots(each func(slice int, s *BrowseSnapshot)) error {
	c, err := e.startCall(e.Browser.Name+".exe", "browse")
	if err != nil {
		return err
	}
	_, err = e.runCall(c, func(iter int) error {
		f, err := e.Fork()
		if err != nil {
			return err
		}
		at := c
		at.iter = iter
		f.paused = &at
		each(iter, &BrowseSnapshot{env: f})
		return nil
	})
	return err
}

// Fork returns a copy of the snapshot's environment, paused where the
// snapshot is; its ResumeBrowse finishes the browse.
func (s *BrowseSnapshot) Fork() (*BrowserEnv, error) { return s.env.Fork() }

// ResumeBrowse finishes the browse an environment forked from a
// BrowseSnapshot is paused in, exactly as the browse the snapshot was
// taken from went on from there.
func (e *BrowserEnv) ResumeBrowse() error {
	if e.paused == nil {
		return fmt.Errorf("%s: no paused browse to resume", e.Browser.Name)
	}
	_, err := e.runCall(*e.paused, nil)
	return err
}

// registerBrowserNatives installs the special-cased APIs the browser models
// rely on.
func registerBrowserNatives(reg *winapi.Registry, env *BrowserEnv) {
	// Sleep(ticks): blocks the calling thread on the virtual clock. It
	// returns 0, set before it blocks: a thread blocked on a
	// continuation could not be forked.
	reg.RegisterNative(winapi.Descriptor{Name: "Sleep", NArgs: 1},
		func(p *vm.Process, t *vm.Thread) *vm.Exception {
			ticks := t.Reg(isa.R1)
			if ticks == 0 {
				ticks = 1
			}
			t.SetReg(0, 0)
			t.Block(p.Clock+ticks, nil)
			return nil
		})
	// AddVectoredExceptionHandler(handler): run-time registration.
	reg.RegisterNative(winapi.Descriptor{Name: "AddVectoredExceptionHandler", NArgs: 1},
		func(p *vm.Process, t *vm.Thread) *vm.Exception {
			p.AddVEHandler(t.Reg(isa.R1))
			t.SetReg(0, 1)
			return nil
		})
	// CreateThread(entry, arg): spawns a thread.
	reg.RegisterNative(winapi.Descriptor{Name: "CreateThread", NArgs: 2},
		func(p *vm.Process, t *vm.Thread) *vm.Exception {
			nt, err := p.StartThread("apithread", t.Reg(isa.R1), t.Reg(isa.R2))
			if err != nil {
				t.SetReg(0, 0)
				return nil
			}
			t.SetReg(0, uint64(nt.ID)+1)
			return nil
		})
	// RtlpEnterCriticalSection(ptr): the user-mode lock stub that
	// dereferences the debug-information field (the IE PoC's fault site).
	reg.Register(winapi.Descriptor{
		Name: "RtlpEnterCriticalSection", NArgs: 1,
		PtrArgs: []int{0}, Cat: winapi.CatUserDeref,
	})
	// RtlQueryExceptionPolicy(): the post-update configuration check.
	reg.RegisterNative(winapi.Descriptor{Name: "RtlQueryExceptionPolicy", NArgs: 1},
		func(p *vm.Process, t *vm.Thread) *vm.Exception {
			t.SetReg(0, 1)
			return nil
		})
	// JsAllocTemp(): returns a fresh temporary allocation — a pointer
	// value with no stored reference anywhere (the "volatile heap
	// pointer" exclusion reason).
	reg.RegisterNative(winapi.Descriptor{Name: "JsAllocTemp", NArgs: 0},
		func(p *vm.Process, t *vm.Thread) *vm.Exception {
			if env.tempBase == 0 {
				base, err := p.Alloc.Alloc(mem.PageSize, mem.PermRW)
				if err != nil {
					t.SetReg(0, 0)
					return nil
				}
				env.tempBase = base
			}
			t.SetReg(0, env.tempBase)
			return nil
		})
}
