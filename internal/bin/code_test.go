package bin

import (
	"bytes"
	"testing"

	"crashresist/internal/isa"
	"crashresist/internal/mem"
)

// TestLoadAttachesPredecodedText checks that a load serves the text's
// instructions from the image's table at every load base, that two loads
// share one table, and that a write to a text page drops its table there.
func TestLoadAttachesPredecodedText(t *testing.T) {
	img := testImage(t)
	as := mem.NewAddressSpace()
	alloc := mem.NewAllocator(as, 0x100000, 0x10000000, 3)
	var bases []uint64
	for range 2 {
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
			if got, ok := as.Decoded(m.Base + uint64(off)); !ok || got != want {
				t.Errorf("base %#x offset %d: Decoded = %v, %v; want %v", m.Base, off, got, ok, want)
			}
			off += n
		}
		if _, ok := as.Decoded(m.Base + 2); ok {
			t.Errorf("base %#x: Decoded hit in the middle of an instruction", m.Base)
		}
		if _, ok := as.Decoded(m.Base + uint64(len(img.Text))); ok {
			t.Errorf("base %#x: Decoded hit in the zero padding after the text", m.Base)
		}
	}
	if bases[0] == bases[1] {
		t.Fatal("both loads at one base")
	}
	if err := as.WriteForce(bases[0]+19, []byte{byte(isa.OpHalt)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := as.Decoded(bases[0]); ok {
		t.Error("Decoded still served the first load's table after a write to its text")
	}
	if _, ok := as.Decoded(bases[1]); !ok {
		t.Error("a write to one load's text dropped the other load's table")
	}
}

// TestWithImportsSharesText checks that a WithImports copy imports only its
// own list and shares the sections and the predecoded text, which is not
// part of the marshalled image.
func TestWithImportsSharesText(t *testing.T) {
	img := testImage(t)
	img.Imports = []Import{{Symbol: "orig"}}
	cp := img.WithImports([]Import{{Symbol: "other"}})
	if img.Imports[0].Symbol != "orig" || len(cp.Imports) != 1 || cp.Imports[0].Symbol != "other" {
		t.Fatalf("imports: original %v, copy %v", img.Imports, cp.Imports)
	}
	if &cp.Text[0] != &img.Text[0] || cp.code != img.code || cp.code == nil {
		t.Fatal("the copy does not share the original's text and predecoded holder")
	}
	if &cp.textPages()[0] != &img.textPages()[0] {
		t.Fatal("the copy built a table of its own")
	}
	before, err := Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	fresh := testImage(t)
	fresh.Imports = cp.Imports
	after, err := Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("a loaded image marshals differently from a fresh one")
	}
}
