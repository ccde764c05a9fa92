package asm

import (
	"bytes"
	"testing"

	"crashresist/internal/bin"
	"crashresist/internal/isa"
)

// FuzzAssemble assembles its input twice. Assemble must not panic, and the
// two runs must give byte-identical marshalled images or identical errors.
// An image it returns must marshal, unmarshal and marshal again to the same
// bytes, and its text must scan (isa.Scan) without an error. The seeds are
// the sources of text_test.go.
func FuzzAssemble(f *testing.F) {
	for _, src := range []string{sampleSource, dataBSSSource, guardSource, memorySource, commentSource} {
		f.Add(src)
	}
	for _, c := range errorCases {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		img, err := Assemble(src)
		again, errAgain := Assemble(src)
		if (err == nil) != (errAgain == nil) || err != nil && err.Error() != errAgain.Error() {
			t.Fatalf("two assemblies disagree: %v, then %v", err, errAgain)
		}
		if err != nil {
			return
		}
		raw, err := bin.Marshal(img)
		if err != nil {
			t.Fatalf("assembled image does not marshal: %v", err)
		}
		if rawAgain, err := bin.Marshal(again); err != nil || !bytes.Equal(raw, rawAgain) {
			t.Fatalf("two assemblies marshal differently (%v)", err)
		}
		back, err := bin.Unmarshal(raw)
		if err != nil {
			t.Fatalf("marshalled image does not unmarshal: %v", err)
		}
		if rawBack, err := bin.Marshal(back); err != nil || !bytes.Equal(raw, rawBack) {
			t.Fatalf("image does not re-marshal to the same bytes (%v)", err)
		}
		if _, err := isa.Scan(img.Text); err != nil {
			t.Fatalf("assembled text does not scan: %v", err)
		}
	})
}
