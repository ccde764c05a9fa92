package asm

import (
	"strings"
	"testing"

	"crashresist/internal/bin"
	"crashresist/internal/isa"
)

const sampleSource = `
; sample program: sums 1..10 and exits
.module sum.exe exe
.entry main

.func main
    mov r1, 0            ; sum
    mov r2, 1            ; i
loop:
    cmp r2, 10
    jg done
    add r1, r2
    add r2, 1
    jmp loop
done:
    mov r0, r1
    halt
.endfunc
`

func TestAssembleAndRunSample(t *testing.T) {
	img, err := Assemble(sampleSource)
	if err != nil {
		t.Fatal(err)
	}
	if img.Name != "sum.exe" || img.Kind != bin.KindExecutable {
		t.Errorf("header = %s %v", img.Name, img.Kind)
	}
	ins, err := isa.DecodeAll(img.Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 9 {
		t.Errorf("instruction count = %d", len(ins))
	}
}

const dataBSSSource = `
.module lib.dll dll
.func probe
    lea r1, greeting
    load8 r0, [r1+0]
    ret
.endfunc
.data greeting str:"GET /\n\0"
.data magic u64:0xdeadbeef
.data pad zero:16
.dataptr vec probe
.bss buf 128
.export probe probe
.export buf buf
`

func TestAssembleDataBssExports(t *testing.T) {
	img, err := Assemble(dataBSSSource)
	if err != nil {
		t.Fatal(err)
	}
	if string(img.Data[:7]) != "GET /\n\x00" {
		t.Errorf("greeting bytes = %q", img.Data[:7])
	}
	if len(img.Relocs) != 1 || img.Relocs[0].Target != 0 {
		t.Errorf("relocs = %+v", img.Relocs)
	}
	if img.BSSSize < 128 {
		t.Errorf("bss = %d", img.BSSSize)
	}
	if _, ok := img.Exports["probe"]; !ok {
		t.Error("probe not exported")
	}
	if off, ok := img.Exports["buf"]; !ok || off < img.BSSStart() {
		t.Errorf("buf export = %#x %v", off, ok)
	}
}

const guardSource = `
.module g.dll dll
.func probe
try:
    load8 r0, [r1+0]
try_end:
    ret
land:
    mov r0, 0xffffffffffffffff
    ret
.endfunc
.func flt
    cmp r1, 0xC0000005
    jz yes
    mov r0, 0
    ret
yes:
    mov r0, 1
    ret
.endfunc
.guard probe try try_end flt land
.guard probe try try_end catchall land
`

func TestAssembleGuardAndFilter(t *testing.T) {
	img, err := Assemble(guardSource)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Scopes) != 2 {
		t.Fatalf("scopes = %d", len(img.Scopes))
	}
	if img.Scopes[0].IsCatchAll() || !img.Scopes[1].IsCatchAll() {
		t.Errorf("scope kinds wrong: %+v", img.Scopes)
	}
}

const memorySource = `
.module m.exe exe
.entry main
.func main
    load4 r1, [r2-16]
    store2 [sp+8], r3
    push r4
    pop r4
    callr r5
    calli api:read
    calli libc.dll!helper
    raise 0xC0000094
    syscall
    yield
    nop
    halt
.endfunc
`

func TestAssembleMemoryAndImports(t *testing.T) {
	img, err := Assemble(memorySource)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Imports) != 2 {
		t.Fatalf("imports = %+v", img.Imports)
	}
	if img.Imports[0].String() != "api:read" || img.Imports[1].String() != "libc.dll!helper" {
		t.Errorf("imports = %v", img.Imports)
	}
	lines, err := isa.Scan(img.Text)
	if err != nil {
		t.Fatal(err)
	}
	if lines[0].Ins.Op != isa.OpLoad4 || lines[0].Ins.Disp != -16 {
		t.Errorf("load = %+v", lines[0].Ins)
	}
	if lines[1].Ins.Op != isa.OpStore2 || lines[1].Ins.A != isa.SP || lines[1].Ins.Disp != 8 {
		t.Errorf("store = %+v", lines[1].Ins)
	}
}

func TestAssembleRoundTripThroughDisassembler(t *testing.T) {
	img, err := Assemble(sampleSource)
	if err != nil {
		t.Fatal(err)
	}
	text := isa.Disassemble(img.Text)
	for _, want := range []string{"mov r1, 0x0", "cmp r2, 10", "jg", "add r1, r2", "halt"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}

// errorCases are sources Assemble rejects, each with a piece of its error.
var errorCases = []struct {
	name string
	src  string
	want string
}{
	{"no module", ".func f\nret\n.endfunc", "before .module"},
	{"dup module", ".module a exe\n.module b exe", "duplicate"},
	{"bad kind", ".module a elf", "unknown module kind"},
	{"bad mnemonic", ".module a exe\nfrobnicate r1", "unknown mnemonic"},
	{"bad register", ".module a exe\nmov r99, 1", "bad register"},
	{"bad mem operand", ".module a exe\nload8 r1, r2", "bad memory operand"},
	{"nested func", ".module a exe\n.func f\n.func g", "nested"},
	{"endfunc alone", ".module a exe\n.endfunc", "without"},
	{"calli bare", ".module a exe\n.func f\ncalli read\nret\n.endfunc", "calli operand"},
	{"div imm", ".module a exe\n.func f\ndiv r1, 5\nret\n.endfunc", "register source"},
	{"bad data kind", ".module a exe\n.data x hex:FF", "unknown data kind"},
	{"unterminated string", `.module a exe` + "\n" + `.data x str:"abc`, "quoted"},
	{"bad escape", `.module a exe` + "\n" + `.data x str:"a\q"`, "unknown escape"},
	{"undefined label", ".module a exe\n.func f\njmp nowhere\nret\n.endfunc", "nowhere"},
	{"undefined exports", undefinedExportsSource, "nosuch1"},
}

// undefinedExportsSource exports three undefined symbols; the error names
// the first declared.
const undefinedExportsSource = ".module a dll\n.export a nosuch1\n.export b nosuch2\n.export c nosuch3\n"

func TestAssembleErrors(t *testing.T) {
	for _, tt := range errorCases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Assemble(tt.src)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("err = %v, want contains %q", err, tt.want)
			}
		})
	}
}

func TestAssembleLineNumbersInErrors(t *testing.T) {
	_, err := Assemble(".module a exe\n\n\nbogus r1\n")
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("err = %v, want line 4", err)
	}
}

const commentSource = `
   ; full-line comment
.module c.exe exe
.entry main
.func main
    nop ; trailing comment
	halt
.endfunc
`

func TestAssembleCommentsAndWhitespace(t *testing.T) {
	img, err := Assemble(commentSource)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := isa.DecodeAll(img.Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 2 || ins[0].Op != isa.OpNop || ins[1].Op != isa.OpHalt {
		t.Errorf("ins = %v", ins)
	}
}
