package bin

import (
	"bytes"
	"testing"

	"crashresist/internal/isa"
	"crashresist/internal/mem"
)

// TestLoadAttachesPredecodedText checks that a load serves the text's
// instructions from the image's table at every load base, that two loads
// share one table, and that a write to a text page drops its table there
// and copies the page, leaving the other load and the image's shared text
// as they were. The loaded image marshals exactly as a fresh one, since
// its predecoded text is never marshalled.
func TestLoadAttachesPredecodedText(t *testing.T) {
	img := testImage(t)
	as := mem.NewAddressSpace()
	alloc := mem.NewAllocator(as, 0x100000, 0x10000000, 3)
	var (
		bases []uint64
		first []*isa.Instruction // the first load's Decoded at each instruction
	)
	for load := range 2 {
		m, err := Load(as, alloc, img, nil)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, m.Base)
		for off := 0; off < len(img.Text); {
			want, n, err := isa.Decode(img.Text[off:])
			if err != nil {
				t.Fatal(err)
			}
			got := as.Decoded(m.Base + uint64(off))
			if got == nil || *got != want {
				t.Errorf("base %#x offset %d: Decoded = %v; want %v", m.Base, off, got, want)
			}
			if load == 0 {
				first = append(first, got)
			} else if got != first[0] {
				t.Errorf("base %#x offset %d: the loads' Decoded are different instructions", m.Base, off)
			}
			if load == 1 {
				first = first[1:]
			}
			off += n
		}
		if as.Decoded(m.Base+2) != nil {
			t.Errorf("base %#x: Decoded hit in the middle of an instruction", m.Base)
		}
		if as.Decoded(m.Base+uint64(len(img.Text))) != nil {
			t.Errorf("base %#x: Decoded hit in the zero padding after the text", m.Base)
		}
	}
	if bases[0] == bases[1] {
		t.Fatal("both loads at one base")
	}
	if err := as.WriteForce(bases[0]+19, []byte{byte(isa.OpHalt)}); err != nil {
		t.Fatal(err)
	}
	if as.Decoded(bases[0]) != nil {
		t.Error("Decoded still served the first load's table after a write to its text")
	}
	if as.Decoded(bases[1]) == nil {
		t.Error("a write to one load's text dropped the other load's table")
	}
	text, _ := img.textPages()
	for i, base := range bases {
		got, err := as.Read(base+19, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := img.Text[19]; i == 1 && got[0] != want || text[0][19] != want {
			t.Errorf("load %d reads %#x at offset 19, shared text %#x; want the image's %#x", i, got[0], text[0][19], want)
		}
	}
	loaded, err := Marshal(img)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Marshal(testImage(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(loaded, fresh) {
		t.Error("a loaded image marshals differently from a fresh one")
	}
}
