package isa

// Table holds the instructions a linear sweep decoded from one page of code,
// keyed by their byte offset in the page. It is immutable once built, so any
// number of processes may read one concurrently.
type Table struct {
	// slot has one entry per byte of code the page holds: 1 + the index
	// in ins of the instruction starting there, or 0 when none does.
	slot []uint16
	ins  []Instruction
}

// At returns the instruction starting at byte offset off of the page, if the
// sweep decoded one there.
func (t *Table) At(off uint64) (Instruction, bool) {
	if off >= uint64(len(t.slot)) {
		return Instruction{}, false
	}
	i := t.slot[off]
	if i == 0 {
		return Instruction{}, false
	}
	return t.ins[i-1], true
}

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
		tables[page] = Table{slot: slots[lo:hi:hi], ins: ins[first:end:end]}
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
