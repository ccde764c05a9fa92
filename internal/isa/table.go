package isa

// Table holds the instructions a linear sweep decoded from one page of code,
// keyed by their byte offset in the page. It is immutable once built, so any
// number of processes may read one concurrently.
//
// The sweep numbers the instructions it decodes 0, 1, 2, ... in offset
// order across all of its tables, so a number names one instruction start
// of the whole run of code; per-instruction counters index by it.
type Table struct {
	// slot has one entry per byte of code the page holds: 1 + the index
	// in ins of the instruction starting there, or 0 when none does.
	slot []uint16
	ins  []Instruction
	// first is the number of ins[0].
	first int
}

// At returns the instruction starting at byte offset off of the page, or nil
// when the sweep decoded none there. The instruction is the table's own,
// shared by every reader: callers must not write through it.
func (t *Table) At(off uint64) *Instruction {
	if off >= uint64(len(t.slot)) {
		return nil
	}
	i := t.slot[off]
	if i == 0 {
		return nil
	}
	return &t.ins[i-1]
}

// Num returns the number of the instruction starting at byte offset off of
// the page, if the sweep decoded one there.
func (t *Table) Num(off uint64) (int, bool) {
	if off >= uint64(len(t.slot)) {
		return 0, false
	}
	i := t.slot[off]
	if i == 0 {
		return 0, false
	}
	return t.first + int(i) - 1, true
}

// Len returns how many bytes of code the table covers.
func (t *Table) Len() int { return len(t.slot) }

// End returns one past the number of the table's last instruction; the last
// table's End is how many instructions the sweep numbered.
func (t *Table) End() int { return t.first + len(t.ins) }

// SweepPages decodes code linearly from offset 0 and returns one Table per
// pageSize bytes of it; the last table covers only the bytes left. A page's
// table keeps each instruction that starts and ends inside the page, so an
// instruction straddling a page boundary is in neither table. The sweep
// steps over a byte it cannot decode and resynchronizes on the next.
// pageSize must be positive and at most 65535.
func SweepPages(code []byte, pageSize int) []Table {
	if len(code) == 0 {
		return nil
	}
	// The first pass counts what the second keeps, so the tables take
	// three exact allocations whatever the text's size.
	kept := 0
	sweep(code, pageSize, func(int, Instruction) { kept++ })
	tables := make([]Table, (len(code)+pageSize-1)/pageSize)
	slots := make([]uint16, len(code))
	ins := make([]Instruction, 0, kept)
	page, first := 0, 0 // the page being filled and its first index in ins
	finish := func() {
		lo, hi, end := page*pageSize, min((page+1)*pageSize, len(code)), len(ins)
		tables[page] = Table{slot: slots[lo:hi:hi], ins: ins[first:end:end], first: first}
		page, first = page+1, end
	}
	sweep(code, pageSize, func(off int, in Instruction) {
		for off >= (page+1)*pageSize {
			finish()
		}
		ins = append(ins, in)
		slots[off] = uint16(len(ins) - first)
	})
	for page < len(tables) {
		finish()
	}
	return tables
}

// sweep calls keep, in offset order, for each instruction a linear sweep of
// code decodes that does not straddle a pageSize boundary.
func sweep(code []byte, pageSize int, keep func(off int, in Instruction)) {
	for off := 0; off < len(code); {
		in, n, err := Decode(code[off:])
		if err != nil {
			off++
			continue
		}
		if off/pageSize == (off+n-1)/pageSize {
			keep(off, in)
		}
		off += n
	}
}
