// Package bin defines CRX, the binary image format for M64 executables and
// libraries, together with its loader.
//
// A CRX image is the synthetic analogue of an ELF binary or PE DLL. It
// carries exactly the metadata the paper's discovery pipelines consume:
//
//   - an executable text section (M64 code, position independent),
//   - an initialized data section plus BSS,
//   - an import table (system APIs or module!symbol references) driving the
//     CALLI instruction, so call-site harvesting can attribute API calls,
//   - an export table and function symbols,
//   - data relocations for absolute pointers embedded in data,
//   - a scope table equivalent to the PE .pdata/.xdata exception metadata:
//     guarded [begin,end) code ranges, each with a filter (a real function in
//     the image, or the catch-all marker) and a handler landing pad.
//
// Image offsets are "flat": text occupies [0, len(Text)), data starts at
// DataStart(), BSS at BSSStart(). A loaded module's virtual address for flat
// offset o is simply base+o.
//
// Text is position independent and relocations lie in data, so text decodes
// the same at every load base. An image decodes its text once, on its first
// load, and every process that loads it shares the predecoded table and the
// text pages' bytes, which it copies only on a write.
package bin

import (
	"fmt"
	"sort"
	"sync"

	"crashresist/internal/isa"
	"crashresist/internal/mem"
)

// Kind distinguishes executables from libraries.
type Kind uint8

// Image kinds.
const (
	KindExecutable Kind = iota + 1
	KindLibrary
)

// String returns "exe" or "dll".
func (k Kind) String() string {
	switch k {
	case KindExecutable:
		return "exe"
	case KindLibrary:
		return "dll"
	default:
		return "kind?"
	}
}

// FilterCatchAll is the distinguished scope-table filter value meaning "all
// exceptions are caught and execution resumes at the handler", mirroring the
// constant-1 filter field the paper found in jscript9's MUTX::Enter scope
// table.
const FilterCatchAll uint32 = 1

// ScopeEntry is one guarded code region with its exception filter and
// handler, the CRX equivalent of a C-specific SEH scope-table record.
type ScopeEntry struct {
	// Func is the flat offset of the function containing the guarded
	// region; exception dispatch unwinds to this function's frame.
	Func uint32
	// Begin and End delimit the guarded instruction range [Begin, End).
	Begin uint32
	End   uint32
	// Filter is the flat offset of the filter function, or FilterCatchAll.
	// A filter function receives the exception code in R1 and the fault
	// address in R2 and returns the SEH disposition in R0.
	Filter uint32
	// Target is the flat offset of the handler landing pad inside Func.
	Target uint32
}

// Covers reports whether the guarded range contains the flat offset.
func (s ScopeEntry) Covers(off uint32) bool { return off >= s.Begin && off < s.End }

// IsCatchAll reports whether the entry catches every exception class.
func (s ScopeEntry) IsCatchAll() bool { return s.Filter == FilterCatchAll }

// Import names a symbol resolved at load time. A zero-length Module means a
// system API provided natively by the platform layer (Windows-model API or a
// kernel-provided vector); otherwise the loader binds to Module's export.
type Import struct {
	Module string
	Symbol string
}

// String renders "module!symbol" or "api:symbol".
func (i Import) String() string {
	if i.Module == "" {
		return "api:" + i.Symbol
	}
	return i.Module + "!" + i.Symbol
}

// Reloc instructs the loader to write base+Target (8 bytes little endian) at
// flat offset Offset, which must lie in the data section.
type Reloc struct {
	Offset uint32
	Target uint32
}

// Symbol is a named function or data object, used for reporting and for
// locating code in analyses.
type Symbol struct {
	Name   string
	Offset uint32
	Size   uint32
}

// Image is a CRX binary image. An image must not change once it has been
// loaded: its first load derives state from its text.
type Image struct {
	Name    string
	Kind    Kind
	Entry   uint32 // flat offset of the entry point (executables)
	Text    []byte
	Data    []byte
	BSSSize uint32
	Imports []Import
	Exports map[string]uint32 // name → flat offset
	Symbols []Symbol
	Relocs  []Reloc
	Scopes  []ScopeEntry

	// code is the text's pages and predecoded tables, set on the first
	// load (or the first WithImports) and shared from then on by every
	// load and by copies WithImports makes. It is derived from Text, so
	// it is neither marshalled nor part of any digest. codeMu guards the
	// field.
	code *predecoded
}

// predecoded is an image's text as loads map it: its bytes split into
// zero-padded pages, and one predecoded table per page.
type predecoded struct {
	once  sync.Once
	text  [][mem.PageSize]byte
	pages []isa.Table
}

// codeMu guards every Image's code field. Concurrent pipelines load the
// same images, so the field is set under a lock and the table is built
// once, outside it.
var codeMu sync.Mutex

// sharedCode returns img's predecoded text, creating the empty holder on
// first use.
func (img *Image) sharedCode() *predecoded {
	codeMu.Lock()
	defer codeMu.Unlock()
	if img.code == nil {
		img.code = new(predecoded)
	}
	return img.code
}

// textPages returns img's text pages and their predecoded tables, building
// them on the first call for img or any image sharing them. Both are a pure
// function of Text, so whichever process builds them, every load maps the
// same bytes and executes the same instructions. Nothing writes the pages:
// a load maps them as views (mem.AddressSpace.AttachText).
func (img *Image) textPages() ([][mem.PageSize]byte, []isa.Table) {
	c := img.sharedCode()
	c.once.Do(func() {
		c.text = make([][mem.PageSize]byte, mem.RoundUp(uint64(len(img.Text)))/mem.PageSize)
		for i := range c.text {
			copy(c.text[i][:], img.Text[i*mem.PageSize:])
		}
		c.pages = isa.SweepPages(img.Text, mem.PageSize)
	})
	return c.text, c.pages
}

// WithImports returns a copy of img that imports imps instead of img's
// imports. The copy shares every section and the predecoded text with img,
// so images that differ only in what they import decode their text once.
func (img *Image) WithImports(imps []Import) *Image {
	img.sharedCode()
	cp := *img
	cp.Imports = imps
	return &cp
}

// DataStart returns the flat offset where the data section begins.
func (img *Image) DataStart() uint32 {
	return uint32(mem.RoundUp(uint64(len(img.Text))))
}

// BSSStart returns the flat offset where the BSS begins.
func (img *Image) BSSStart() uint32 {
	return img.DataStart() + uint32(mem.RoundUp(uint64(len(img.Data))))
}

// Span returns the total mapped size of the image in bytes (page rounded).
func (img *Image) Span() uint64 {
	return uint64(img.BSSStart()) + mem.RoundUp(uint64(img.BSSSize))
}

// Export looks up an exported symbol's flat offset.
func (img *Image) Export(name string) (uint32, bool) {
	off, ok := img.Exports[name]
	return off, ok
}

// SymbolAt returns the function symbol containing the flat offset, if any.
func (img *Image) SymbolAt(off uint32) (Symbol, bool) {
	best := -1
	for i, s := range img.Symbols {
		if off >= s.Offset && (s.Size == 0 || off < s.Offset+s.Size) {
			if best < 0 || s.Offset > img.Symbols[best].Offset {
				best = i
			}
		}
	}
	if best < 0 {
		return Symbol{}, false
	}
	return img.Symbols[best], true
}

// Validate performs structural sanity checks and returns the first problem
// found, or nil. Loaders call this before mapping.
func (img *Image) Validate() error {
	if img.Name == "" {
		return fmt.Errorf("image has no name")
	}
	if img.Kind != KindExecutable && img.Kind != KindLibrary {
		return fmt.Errorf("%s: invalid kind %d", img.Name, img.Kind)
	}
	if img.Kind == KindExecutable && int(img.Entry) >= len(img.Text) {
		return fmt.Errorf("%s: entry %#x outside text (%#x)", img.Name, img.Entry, len(img.Text))
	}
	textEnd := uint32(len(img.Text))
	dataStart, bssStart := img.DataStart(), img.BSSStart()
	for name, off := range img.Exports {
		if off >= bssStart+img.BSSSize {
			return fmt.Errorf("%s: export %q offset %#x out of range", img.Name, name, off)
		}
	}
	for i, r := range img.Relocs {
		if r.Offset < dataStart || r.Offset+8 > dataStart+uint32(len(img.Data)) {
			return fmt.Errorf("%s: reloc %d offset %#x outside data", img.Name, i, r.Offset)
		}
	}
	for i, s := range img.Scopes {
		if s.Begin >= s.End || s.End > textEnd {
			return fmt.Errorf("%s: scope %d bad range [%#x,%#x)", img.Name, i, s.Begin, s.End)
		}
		if s.Target >= textEnd {
			return fmt.Errorf("%s: scope %d target %#x outside text", img.Name, i, s.Target)
		}
		if s.Filter != FilterCatchAll && s.Filter >= textEnd {
			return fmt.Errorf("%s: scope %d filter %#x outside text", img.Name, i, s.Filter)
		}
		if s.Func >= textEnd {
			return fmt.Errorf("%s: scope %d func %#x outside text", img.Name, i, s.Func)
		}
	}
	return nil
}

// Module is an image mapped into an address space.
type Module struct {
	Image *Image
	Base  uint64
	// ImportAddrs holds one resolved target per Image.Imports entry:
	// either the virtual address of another module's export (code import)
	// or an opaque native API handle (see NativeImportBit).
	ImportAddrs []uint64
}

// NativeImportBit marks an ImportAddrs entry as a native API handle rather
// than a code address. The low 32 bits carry the platform's API identifier.
// Bit 63 is far outside the simulated user address arena, so the two cannot
// collide.
const NativeImportBit = uint64(1) << 63

// VA converts a flat image offset to a virtual address.
func (m *Module) VA(off uint32) uint64 { return m.Base + uint64(off) }

// Contains reports whether the virtual address falls inside the module.
func (m *Module) Contains(addr uint64) bool {
	return addr >= m.Base && addr < m.Base+m.Image.Span()
}

// OffsetOf converts a virtual address inside the module to a flat offset.
func (m *Module) OffsetOf(addr uint64) uint32 { return uint32(addr - m.Base) }

// ScopesAt returns the scope entries guarding the given virtual address,
// innermost (smallest range) first.
func (m *Module) ScopesAt(addr uint64) []ScopeEntry {
	if !m.Contains(addr) {
		return nil
	}
	off := m.OffsetOf(addr)
	var out []ScopeEntry
	for _, s := range m.Image.Scopes {
		if s.Covers(off) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].End-out[i].Begin < out[j].End-out[j].Begin
	})
	return out
}

// ImportResolver resolves an import to either a code virtual address or a
// native API handle (with NativeImportBit set).
type ImportResolver func(imp Import) (uint64, error)

// Load validates img, maps its sections at the allocator-chosen base, applies
// relocations and resolves imports. Text is mapped r-x, data and BSS rw-.
// Each text page is a view of the image's shared text page and carries its
// predecoded table, until the process first writes to it.
func Load(as *mem.AddressSpace, alloc *mem.Allocator, img *Image, resolve ImportResolver) (*Module, error) {
	if err := img.Validate(); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	base, err := alloc.Alloc(img.Span(), mem.PermRW)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", img.Name, err)
	}
	if len(img.Data) > 0 {
		if err := as.WriteForce(base+uint64(img.DataStart()), img.Data); err != nil {
			return nil, fmt.Errorf("load %s data: %w", img.Name, err)
		}
	}
	for _, r := range img.Relocs {
		var buf [8]byte
		v := base + uint64(r.Target)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		if err := as.WriteForce(base+uint64(r.Offset), buf[:]); err != nil {
			return nil, fmt.Errorf("load %s reloc: %w", img.Name, err)
		}
	}
	// Map text as views of the image's shared pages, with their
	// predecoded tables, and seal it r-x.
	if text, code := img.textPages(); len(text) > 0 {
		if err := as.AttachText(base, text, code); err != nil {
			return nil, fmt.Errorf("load %s text: %w", img.Name, err)
		}
		if err := as.Protect(base, uint64(len(text))*mem.PageSize, mem.PermRX); err != nil {
			return nil, fmt.Errorf("load %s protect: %w", img.Name, err)
		}
	}

	m := &Module{Image: img, Base: base}
	if len(img.Imports) > 0 {
		if resolve == nil {
			return nil, fmt.Errorf("load %s: image has imports but no resolver", img.Name)
		}
		m.ImportAddrs = make([]uint64, len(img.Imports))
		for i, imp := range img.Imports {
			addr, err := resolve(imp)
			if err != nil {
				return nil, fmt.Errorf("load %s: resolve %s: %w", img.Name, imp, err)
			}
			m.ImportAddrs[i] = addr
		}
	}
	return m, nil
}
