package isa

import "testing"

// TestSweepPages checks the page split: each table is sized to the code on
// its page, keeps only instructions that start and end on it, answers At
// and Num exactly at their starts, numbering them in offset order across
// the tables, and the sweep steps over undecodable bytes.
func TestSweepPages(t *testing.T) {
	const page = 16
	// 0: movri (10 bytes), 10: load8 (7 bytes, straddles 16), 17: an
	// invalid byte, 18: nop, 19: jmp (5 bytes), 24: ret (the last byte).
	prog := []Instruction{
		{Op: OpMovRI, A: R1, Imm: 0x1122334455667788},
		{Op: OpLoad8, A: R2, B: R1, Disp: 8},
	}
	code, err := EncodeAll(prog)
	if err != nil {
		t.Fatal(err)
	}
	code = append(code, 0xff)
	tail, err := EncodeAll([]Instruction{{Op: OpNop}, {Op: OpJmp, Disp: -3}, {Op: OpRet}})
	if err != nil {
		t.Fatal(err)
	}
	code = append(code, tail...)

	tables := SweepPages(code, page)
	if len(tables) != 2 {
		t.Fatalf("%d tables, want 2", len(tables))
	}
	if got := []int{len(tables[0].slot), len(tables[1].slot)}; got[0] != page || got[1] != len(code)-page {
		t.Errorf("slot lengths %v, want [%d %d]", got, page, len(code)-page)
	}
	want := map[[2]int]Instruction{
		{0, 0}:         prog[0],
		{1, 18 - page}: {Op: OpNop},
		{1, 19 - page}: {Op: OpJmp, Disp: -3},
		{1, 24 - page}: {Op: OpRet},
	}
	wantNum := map[[2]int]int{{0, 0}: 0, {1, 18 - page}: 1, {1, 19 - page}: 2, {1, 24 - page}: 3}
	for p := range tables {
		for off := uint64(0); off < page+2; off++ {
			w, wantOK := want[[2]int{p, int(off)}]
			if ins := tables[p].At(off); (ins != nil) != wantOK || ins != nil && *ins != w {
				t.Errorf("page %d At(%d) = %v; want %v, %v", p, off, ins, w, wantOK)
			}
			n, ok := tables[p].Num(off)
			if w, wantOK := wantNum[[2]int{p, int(off)}]; ok != wantOK || n != w {
				t.Errorf("page %d Num(%d) = %d, %v; want %d, %v", p, off, n, ok, w, wantOK)
			}
		}
	}
	if n := len(tables[0].ins) + len(tables[1].ins); n != len(want) {
		t.Errorf("tables hold %d instructions, want %d", n, len(want))
	}
	if got := []int{tables[0].End(), tables[1].End(), tables[1].Len()}; got[0] != 1 || got[1] != len(want) || got[2] != len(code)-page {
		t.Errorf("End, End, Len = %v; want [1 %d %d]", got, len(want), len(code)-page)
	}
	if SweepPages(nil, page) != nil {
		t.Error("SweepPages(nil) is not nil")
	}
}

// TestOpTables checks the opcode tables against the switch that defines
// them, for every byte an opcode can take.
func TestOpTables(t *testing.T) {
	for b := 0; b < 256; b++ {
		op := Op(b)
		if got, want := LayoutOf(op), layoutFor(op); got != want {
			t.Errorf("LayoutOf(%d) = %d, want %d", b, got, want)
		}
		if got, want := (Instruction{Op: op}).Size(), layoutFor(op).Size(); got != want {
			t.Errorf("Size of op %d = %d, want %d", b, got, want)
		}
	}
}
