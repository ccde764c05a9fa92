package vm_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/isa"
	"crashresist/internal/mem"
	"crashresist/internal/targets"
	"crashresist/internal/trace"
	"crashresist/internal/vm"
)

// The differential interpreter oracle runs one program twice, once reading
// predecoded tables and once fetching and decoding every instruction (the
// reference path), and requires the two runs to agree on everything a
// caller can observe.
const (
	// interpBudget bounds each run's virtual ticks, so loops end.
	interpBudget = 4096
	// interpExt is a page of code outside any image, below the ASLR
	// arena, so no load can take its address.
	interpExt = 0x7000_0000
	// interpSteps bounds the host actions one input schedules.
	interpSteps = 16
)

// Input modes: an assembled program, or a DLL of the generated corpus.
const (
	modeProgram = 0
	modeGenDLL  = 3
)

// Block kinds of an assembled program.
const (
	blockMovRI = iota
	blockALU
	blockLoad
	blockStore
	blockStoreCode
	blockJmpMid
	blockBranch
	blockRaise
	blockPad
	blockCallExt
	blockCallHelper
	blockJmpPadding
	numBlockKinds
)

// Host actions between run slices.
const (
	hostProtectRWX = iota
	hostProtectRX
	hostProtectRW
	hostWriteForce
	hostWrite
	hostRemap
	hostProtectExt
	hostWriteExt
	numHostActions
)

// interpReader decodes a fuzz input; past its end every read is zero.
type interpReader struct{ b []byte }

func (r *interpReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *interpReader) u16() uint64 { return uint64(r.byte()) | uint64(r.byte())<<8 }

func (r *interpReader) bytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = r.byte()
	}
	return out
}

func interpBlock(i int) string { return fmt.Sprintf("b%d", i) }

// buildInterpProgram assembles the program an input describes: a prologue
// that points R9 at a data buffer, R10 at the text and R12 at the external
// code page, then blocks, each guarded by a catch-all scope whose handler is
// the next block, a final HALT block, a helper function and a label at the
// end of the text.
//
// The input is a block count byte, then per block a kind byte, two register
// bytes and the kind's operands.
func buildInterpProgram(r *interpReader) (*bin.Image, error) {
	b := asm.NewBuilder("interp.exe", bin.KindExecutable)
	n := int(r.byte()%24) + 1
	b.Func("main").Entry("main").
		LeaData(isa.R9, "buf").
		LeaCode(isa.R10, "main").
		MovRI(isa.R12, interpExt)
	for i := 0; i < n; i++ {
		b.Label(interpBlock(i)).Nop()
		emitInterpBlock(b, r, i, n)
		b.Label(interpBlock(i)+"_end").
			Guard("main", interpBlock(i), interpBlock(i)+"_end", asm.CatchAll, interpBlock(i+1))
	}
	b.Label(interpBlock(n)).Halt().EndFunc()
	b.Func("helper").AddRI(isa.R1, 1).Ret().EndFunc()
	b.Label("text_end")
	b.BSS("buf", 256)
	return b.Build()
}

func emitInterpBlock(b *asm.Builder, r *interpReader, i, n int) {
	kind := r.byte() % numBlockKinds
	ra, rb := isa.Register(r.byte()%7), isa.Register(r.byte()%7)
	size := []int{1, 2, 4, 8}[r.byte()%4]
	base := isa.R9
	if r.byte()%2 == 1 {
		base = isa.R10 // the text itself
	}
	switch kind {
	case blockMovRI:
		b.MovRI(ra, r.u16())
	case blockALU:
		ops := []func(dst, src isa.Register) *asm.Builder{
			b.AddRR, b.SubRR, b.AndRR, b.OrRR, b.XorRR, b.ShlRR, b.ShrRR, b.MulRR, b.DivRR,
		}
		ops[int(r.byte())%len(ops)](ra, rb)
	case blockLoad:
		b.Load(size, ra, base, int32(r.byte()))
	case blockStore:
		b.Store(size, base, int32(r.byte()), rb)
	case blockStoreCode:
		// A store into another block's instructions: it faults while
		// text is r-x and rewrites code once the host makes it rwx.
		b.LeaCode(isa.R11, interpBlock(int(r.byte())%n)).
			Store(size, isa.R11, int32(r.byte()%8), rb)
	case blockJmpMid:
		b.LeaCode(isa.R11, interpBlock(int(r.byte())%n)).
			AddRI(isa.R11, int32(r.byte()%10)).
			JmpR(isa.R11)
	case blockBranch:
		b.CmpRI(ra, int32(r.byte()%4))
		branch := []func(string) *asm.Builder{b.Jz, b.Jnz, b.Jl, b.Jg}
		branch[int(r.byte())%len(branch)](interpBlock(int(r.byte()) % (n + 1)))
	case blockRaise:
		b.Raise(0xE0000000 | uint32(r.u16()))
	case blockPad:
		// Filler the block jumps over, so the next block's code can
		// start anywhere, straddling a page boundary included.
		skip := interpBlock(i) + "_skip"
		b.Jmp(skip)
		for left := r.u16() % 4500; left > 0; {
			if left >= 10 {
				b.MovRI(isa.R13, 0x0807060504030201)
				left -= 10
			} else {
				b.Nop()
				left--
			}
		}
		b.Label(skip)
	case blockCallExt:
		b.MovRR(isa.R11, isa.R12).
			AddRI(isa.R11, int32(r.byte()%16)).
			CallR(isa.R11)
	case blockCallHelper:
		b.MovRR(isa.R1, ra).Call("helper")
	case blockJmpPadding:
		// Into the zero bytes between the end of the text and the
		// end of its page.
		b.LeaCode(isa.R11, "text_end").
			AddRI(isa.R11, int32(r.byte()%8)).
			JmpR(isa.R11)
	}
}

// interpAPI answers every import with an id derived from its name and every
// call with that id, so runs that call the same APIs agree.
type interpAPI struct{}

func (interpAPI) Resolve(symbol string) (uint32, error) {
	h := uint32(2166136261)
	for i := 0; i < len(symbol); i++ {
		h = (h ^ uint32(symbol[i])) * 16777619
	}
	return h & 0xffff, nil
}

func (interpAPI) Call(_ *vm.Process, t *vm.Thread, id uint32) *vm.Exception {
	t.SetReg(isa.R0, uint64(id))
	return nil
}

// interpEvent is one exception the tracer saw, or its handling.
type interpEvent struct {
	TID       int
	Code      uint32
	PC, Addr  uint64
	Access    mem.Access
	Unmapped  bool
	Handled   bool
	HandlerPC uint64
}

// interpTracer hashes every retired instruction with its PC, hands it to a
// coverage recorder and logs exceptions.
type interpTracer struct {
	hash   uint64
	cov    *trace.Recorder
	events []interpEvent
}

func (tr *interpTracer) OnInstruction(t *vm.Thread, pc uint64, ins isa.Instruction) {
	for _, v := range []uint64{uint64(t.ID), pc, uint64(ins.Op), uint64(ins.A), uint64(ins.B), ins.Imm, uint64(uint32(ins.Disp))} {
		tr.hash = (tr.hash ^ v) * 1099511628211
	}
	tr.cov.OnInstruction(t, pc, ins)
}
func (*interpTracer) OnAPICall(*vm.Thread, uint64, uint32) {}
func (tr *interpTracer) OnException(t *vm.Thread, exc vm.Exception) {
	tr.events = append(tr.events, interpEvent{TID: t.ID, Code: exc.Code, PC: exc.PC, Addr: exc.Addr, Access: exc.Access, Unmapped: exc.Unmapped})
}
func (tr *interpTracer) OnExceptionHandled(t *vm.Thread, exc vm.Exception, handlerPC uint64) {
	tr.events = append(tr.events, interpEvent{TID: t.ID, Code: exc.Code, PC: exc.PC, Handled: true, HandlerPC: handlerPC})
}

// interpThread is a thread's observable end state.
type interpThread struct {
	ID     int
	PC     uint64
	Regs   [isa.NumRegisters]uint64
	State  vm.ThreadState
	Frames []vm.Frame
}

// interpResult is everything the two paths must agree on.
type interpResult struct {
	Stats    vm.Stats
	State    vm.ProcState
	ExitCode uint64
	Crash    string
	Clock    uint64
	Trace    uint64
	Coverage map[trace.ScopeKey]uint64
	Events   []interpEvent
	Threads  []interpThread
	Memory   [sha256.Size]byte
}

// interpSetup is a process ready to run, with the text the host actions
// act on.
type interpSetup struct {
	p    *vm.Process
	img  *bin.Image
	text uint64 // load address of img's text
}

// newInterpProcess loads the input's image into a fresh process, maps the
// external code page and starts the input's threads. The image is built
// once per input and loaded into both runs.
func newInterpProcess(img *bin.Image, threads []byte, reference bool) (*interpSetup, error) {
	p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: 7})
	if reference {
		vm.UseReferenceFetch(p)
	}
	p.API = interpAPI{}
	mod, err := p.LoadImage(img)
	if err != nil {
		return nil, err
	}
	if err := p.AS.Map(interpExt, mem.PageSize, mem.PermRWX); err != nil {
		return nil, err
	}
	ext, err := isa.EncodeAll([]isa.Instruction{
		{Op: isa.OpAddRI, A: isa.R1, Disp: 1},
		{Op: isa.OpRet},
		{Op: isa.OpMovRI, A: isa.R2, Imm: 0x1122334455667788},
		{Op: isa.OpRet},
	})
	if err != nil {
		return nil, err
	}
	if err := p.AS.WriteForce(interpExt, ext); err != nil {
		return nil, err
	}
	if img.Kind == bin.KindExecutable {
		if _, err := p.Start(); err != nil {
			return nil, err
		}
	} else {
		// Each thread byte pair picks a function and its R1.
		args := []uint64{0, 0xdead0000, mod.VA(img.DataStart()), 3}
		for i := 0; i+1 < len(threads); i += 2 {
			sym := img.Symbols[int(threads[i])%len(img.Symbols)]
			if _, err := p.StartThread(sym.Name, mod.VA(sym.Offset), args[threads[i+1]%4]); err != nil {
				return nil, err
			}
		}
	}
	tr := &interpTracer{cov: trace.NewRecorder()}
	tr.cov.EnableCoverage()
	tr.cov.Attach(p)
	p.Tracer = tr
	return &interpSetup{p: p, img: img, text: mod.Base}, nil
}

// hostAction applies one decoded host action to the process: protection
// changes, forced and ordinary writes into text or into the external code
// page, and unmapping a text page to map different code in its place.
// Errors are part of the behaviour both runs share, so they are ignored.
func (s *interpSetup) hostAction(r *interpReader) {
	as := s.p.AS
	act := r.byte() % numHostActions
	pages := mem.RoundUp(uint64(len(s.img.Text))) / mem.PageSize
	if pages == 0 {
		return
	}
	pg := s.text + uint64(r.byte())%pages*mem.PageSize
	switch act {
	case hostProtectRWX:
		_ = as.Protect(pg, mem.PageSize, mem.PermRWX)
	case hostProtectRX:
		_ = as.Protect(pg, mem.PageSize, mem.PermRX)
	case hostProtectRW:
		_ = as.Protect(pg, mem.PageSize, mem.PermRW)
	case hostWriteForce, hostWrite:
		addr := s.text + r.u16()%(pages*mem.PageSize)
		data := r.bytes(int(r.byte()%12) + 1)
		if act == hostWriteForce {
			_ = as.WriteForce(addr, data)
		} else {
			_ = as.Write(addr, data)
		}
	case hostRemap:
		// The same text, shifted, so old instruction starts land
		// mid-instruction.
		shift := uint64(r.byte()%16) + 1
		off := pg - s.text + shift
		code := s.img.Text[min(off, uint64(len(s.img.Text))):min(off+mem.PageSize-shift, uint64(len(s.img.Text)))]
		_ = as.Unmap(pg, mem.PageSize)
		_ = as.Map(pg, mem.PageSize, mem.PermRX)
		_ = as.WriteForce(pg, code)
	case hostProtectExt:
		_ = as.Protect(interpExt, mem.PageSize, []mem.Perm{mem.PermRWX, mem.PermRX, mem.PermRW, 0}[r.byte()%4])
	case hostWriteExt:
		_ = as.WriteForce(interpExt+uint64(r.byte()%32), r.bytes(int(r.byte()%12)+1))
	}
}

// result collects the run's observable end state. Reading every mapped byte
// needs read permission, so the pages are made readable first; that is the
// last thing either run does.
func (s *interpSetup) result() interpResult {
	p := s.p
	tr := p.Tracer.(*interpTracer)
	res := interpResult{
		Stats: p.Stats, State: p.State, ExitCode: p.ExitCode, Clock: p.Clock,
		Trace: tr.hash, Coverage: tr.cov.ScopeHits(), Events: tr.events,
	}
	if p.Crash != nil {
		res.Crash = p.Crash.String()
	}
	for _, t := range p.Threads() {
		res.Threads = append(res.Threads, interpThread{
			ID: t.ID, PC: t.PC, Regs: t.Regs, State: t.State, Frames: t.Frames(),
		})
	}
	h := sha256.New()
	for _, reg := range p.AS.Regions() {
		fmt.Fprintf(h, "%s\n", reg)
		_ = p.AS.Protect(reg.Addr, reg.Length, mem.PermRead)
		data, err := p.AS.Read(reg.Addr, reg.Length)
		if err != nil {
			panic(err) // Regions reported it mapped
		}
		h.Write(data)
	}
	h.Sum(res.Memory[:0])
	return res
}

// runInterp runs an input on one path: it builds the process, then runs
// the schedule — a tick count byte and a host action per step — and spends
// what is left of the budget.
func runInterp(img *bin.Image, threads, schedule []byte, reference bool) (interpResult, error) {
	s, err := newInterpProcess(img, threads, reference)
	if err != nil {
		return interpResult{}, err
	}
	r := &interpReader{b: schedule}
	for step := 0; step < interpSteps && len(r.b) > 0; step++ {
		ticks := uint64(r.byte()) * 4
		s.p.Run(min(ticks, interpBudget-s.p.Clock))
		s.hostAction(r)
	}
	s.p.Run(interpBudget - min(s.p.Clock, interpBudget))
	return s.result(), nil
}

// decodeInterpInput splits an input into its image, thread choices and
// host schedule. The first byte picks the mode: an assembled program, or
// with mode modeGenDLL, generated DLL 0 of the 8-byte seed that follows,
// with up to four threads.
func decodeInterpInput(in []byte) (img *bin.Image, threads, schedule []byte, err error) {
	r := &interpReader{b: in}
	if r.byte()%4 != modeGenDLL {
		img, err = buildInterpProgram(r)
		return img, nil, r.b, err
	}
	seed := int64(binary.LittleEndian.Uint64(r.bytes(8)))
	imgs, _, _, err := targets.GenDLLCorpus(seed, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	threads = r.bytes(2 * (int(r.byte()%4) + 1))
	return imgs[0], threads, r.b, nil
}

// FuzzInterpreter is the differential oracle for the predecoded fast path.
// Each input becomes an M64 program assembled with internal/asm, or a DLL
// from the generated corpus (FuzzGenDLL's generator) run on up to four
// threads, plus a schedule of host actions between run slices: protection
// changes, forced and ordinary writes into text, and unmapping a text page
// to map different code there. The program runs on both paths with the same
// seed and budget; they must agree on vm.Stats, the exception sequence
// (code, PC, address, access, unmapped), every thread's registers, PC and
// frames, the process state, a hash of every retired instruction, the
// per-scope hits of a coverage recorder, and a digest of Regions() plus
// the mapped bytes.
//
// Blocks can store into text, jump into the middle of an instruction, call
// code outside any image, run into the zero padding after the text, and
// pad the text so an instruction straddles a page boundary; the seeds below
// cover each of these with the host actions that make them interesting.
func FuzzInterpreter(f *testing.F) {
	for _, seed := range interpSeeds {
		f.Add(seed.in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		img, threads, schedule, err := decodeInterpInput(in)
		if err != nil {
			t.Skip(err) // an assembler rejection: not a program
		}
		ref, err := runInterp(img, threads, schedule, true)
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		fast, err := runInterp(img, threads, schedule, false)
		if err != nil {
			t.Fatalf("predecoded run: %v", err)
		}
		diffInterp(t, fast, ref)
	})
}

// diffInterp fails t with the first difference between the two runs.
func diffInterp(t *testing.T, fast, ref interpResult) {
	t.Helper()
	for i := 0; i < min(len(fast.Events), len(ref.Events)); i++ {
		if fast.Events[i] != ref.Events[i] {
			t.Fatalf("exception %d: predecoded %+v, reference %+v", i, fast.Events[i], ref.Events[i])
		}
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Fatalf("runs differ:\npredecoded %+v\nreference  %+v", fast, ref)
	}
}

// interpSeed is a named FuzzInterpreter input.
type interpSeed struct {
	name string
	in   []byte
}

// seedProgram encodes a program-mode input: the blocks' bytes, then the
// schedule's.
func seedProgram(blocks [][]byte, schedule ...[]byte) []byte {
	in := []byte{modeProgram, byte(len(blocks) - 1)}
	for _, b := range blocks {
		in = append(in, b...)
	}
	for _, s := range schedule {
		in = append(in, s...)
	}
	return in
}

// block encodes one block: kind, registers A and B, access size index,
// base (1: text), then the kind's operands.
func block(kind, ra, rb, size, base byte, operands ...byte) []byte {
	return append([]byte{kind, ra, rb, size, base}, operands...)
}

// step encodes one schedule step: run ticks*4 ticks, then the action.
func step(ticks, action byte, operands ...byte) []byte {
	return append([]byte{ticks, action}, operands...)
}

// interpSeeds cover each case the fast path must fall back on, or drop a
// table for. Blocks are numbered from 0; the text is one page unless a pad
// block grows it.
var interpSeeds = []interpSeed{
	{"store-into-text-after-rwx", seedProgram([][]byte{
		block(blockMovRI, 1, 0, 0, 0, 0x0b, 0),  // r1 = 11 (opcode neg)
		block(blockStoreCode, 0, 1, 0, 0, 2, 1), // store1 r1 at block 2 + 1 (its first real instruction)
		block(blockMovRI, 2, 0, 0, 0, 0x34, 0x12),
		block(blockALU, 2, 2, 0, 0, 0),
	}, step(0, hostProtectRWX, 0), step(255, hostProtectRX, 0))},
	{"writeforce-into-text", seedProgram([][]byte{
		block(blockMovRI, 1, 0, 0, 0, 5, 0),
		block(blockBranch, 1, 0, 0, 0, 0, 1, 0), // loop back to block 0 while r1 != 0
	}, step(8, hostWriteForce, 0, 0x20, 0, 3, byte(isa.OpNop), byte(isa.OpHalt), byte(isa.OpNop)))},
	{"exec-removed-then-restored", seedProgram([][]byte{
		block(blockMovRI, 3, 0, 0, 0, 1, 0),
		block(blockCallHelper, 3, 0, 0, 0),
		block(blockBranch, 3, 0, 0, 0, 0, 1, 0), // loop to block 0
		block(blockPad, 0, 0, 0, 0, 0xf0, 0x0f), // 4080 bytes: the helper lands on page 1
	}, step(4, hostProtectRW, 1), step(8, hostProtectRX, 1))},
	{"unmap-remap-different-code", seedProgram([][]byte{
		block(blockMovRI, 4, 0, 0, 0, 9, 0),
		block(blockBranch, 4, 0, 0, 0, 3, 1, 0),
	}, step(6, hostRemap, 0, 3))},
	{"straddle-next-page-untouched", seedProgram([][]byte{
		block(blockPad, 0, 0, 0, 0, 0xe2, 0x0f), // 4066 filler bytes
		block(blockMovRI, 5, 0, 0, 0, 0x77, 0x66),
		block(blockMovRI, 6, 0, 0, 0, 0x55, 0x44),
		block(blockALU, 5, 6, 0, 0, 0),
	})},
	{"straddle-next-page-written", seedProgram([][]byte{
		block(blockPad, 0, 0, 0, 0, 0xe2, 0x0f),
		block(blockMovRI, 5, 0, 0, 0, 0x77, 0x66),
		block(blockMovRI, 6, 0, 0, 0, 0x55, 0x44),
		block(blockALU, 5, 6, 0, 0, 0),
	}, step(0, hostWriteForce, 0, 0x02, 0x10, 1, 0xff))}, // the straddling MovRI's immediate
	{"straddle-next-page-not-executable", seedProgram([][]byte{
		block(blockPad, 0, 0, 0, 0, 0xe2, 0x0f),
		block(blockMovRI, 5, 0, 0, 0, 0x77, 0x66),
		block(blockMovRI, 6, 0, 0, 0, 0x55, 0x44),
		block(blockALU, 5, 6, 0, 0, 0),
	}, step(0, hostProtectRW, 1))},
	{"jump-mid-instruction", seedProgram([][]byte{
		block(blockJmpMid, 0, 0, 0, 0, 1, 2), // into block 1's MovRI immediate
		block(blockMovRI, 1, 0, 0, 0, 0x0c, 0x0d),
		block(blockMovRI, 2, 0, 0, 0, 1, 0),
	})},
	{"zero-padding-after-text", seedProgram([][]byte{
		block(blockMovRI, 1, 0, 0, 0, 1, 0),
		block(blockJmpPadding, 0, 0, 0, 0, 3),
	})},
	{"code-outside-any-image", seedProgram([][]byte{
		block(blockCallExt, 0, 0, 0, 0, 0),
		block(blockCallExt, 0, 0, 0, 0, 3),
	}, step(0, hostWriteExt, 0, 0, 0, byte(isa.OpNop)), step(2, hostProtectExt, 0, 2))},
	// Generated DLL 0 of seed 1: four threads enter guarded functions
	// (symbols 6 to 12) with a NULL, an unmapped and a valid pointer, so
	// filters run and handlers land.
	{"generated-dll", append([]byte{modeGenDLL, 1, 0, 0, 0, 0, 0, 0, 0, 3, 6, 0, 7, 1, 9, 2, 12, 1},
		step(4, hostProtectRW, 0)...)},
}

// TestInterpreterSeeds names each seed's run and checks that it does what
// its name says often enough to matter: every seed retires instructions on
// both paths, and the seeds that aim at a fault or a handled exception
// raise one.
func TestInterpreterSeeds(t *testing.T) {
	for _, seed := range interpSeeds {
		t.Run(seed.name, func(t *testing.T) {
			img, threads, schedule, err := decodeInterpInput(seed.in)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := runInterp(img, threads, schedule, true)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := runInterp(img, threads, schedule, false)
			if err != nil {
				t.Fatal(err)
			}
			diffInterp(t, fast, ref)
			if fast.Stats.Instructions == 0 {
				t.Errorf("retired no instructions")
			}
			t.Logf("%d instructions, %d exceptions, state %v", fast.Stats.Instructions, fast.Stats.Faults, fast.State)
		})
	}
}
