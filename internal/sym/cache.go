package sym

import (
	"fmt"
	"sync"

	"crashresist/internal/bin"
	"crashresist/internal/faultinject"
	"crashresist/internal/vm"
)

// Cache memoizes filter classifications across modules and executors.
//
// The 187-DLL corpus builds its exception filters from a handful of code
// idioms, so thousands of AnalyzeFilter calls collapse onto a few dozen
// distinct byte sequences. The cache keys on the filter's body bytes (via
// its function symbol) plus the accepting disposition, and replays the
// stored report with only the FilterVA rewritten for the new module.
//
// A cached verdict is only valid if the analysis was *pure*: a function of
// the body bytes alone. The executor tracks purity during the miss run and
// refuses to store a report whenever the analysis touched anything
// module-specific:
//
//   - instruction fetch outside the body (tail calls, fallthrough into a
//     neighbour, inlined cross-module calls);
//   - a concrete memory read outside the body (globals, import thunks,
//     loaded data — their values differ between images);
//   - OpCallI, which resolves through the module's import address table;
//   - OpLea, which materializes an absolute, module-base-dependent VA.
//
// Reads of the virtual stack and of path-local stores remain pure: they
// are synthesized by the executor, not read from the process image.
//
// A Cache is safe for concurrent use; worker executors in the parallel
// SEH pipeline share one. Counters are kept per key, so they depend only
// on the analyzed filters, never on scheduling: the first store of a body
// counts its one miss, and every other analysis of that body counts a hit.
// Two workers racing on the same body both run the analysis; the loser's
// store finds the key present, keeps the first (identical) report and
// counts the hit it would have been had it looked up a moment later.
type Cache struct {
	mu          sync.Mutex
	m           map[cacheKey]*Report
	hits        int
	misses      int
	uncacheable int
}

type cacheKey struct {
	disposition uint64
	body        string
}

// NewCache returns an empty filter-classification cache.
func NewCache() *Cache {
	return &Cache{m: make(map[cacheKey]*Report)}
}

// CacheStats reports cache effectiveness counters.
type CacheStats struct {
	// Hits counts analyses of a body already stored (or being stored by
	// a racing executor).
	Hits int
	// Misses counts distinct bodies analyzed and stored.
	Misses int
	// Uncacheable counts analyses executed but not stored, either because
	// the filter has no sized function symbol or because the run was
	// impure (see type comment).
	Uncacheable int
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Uncacheable: c.uncacheable}
}

func (c *Cache) lookup(k cacheKey) (*Report, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, ok := c.m[k]
	if ok {
		c.hits++
	}
	return rep, ok
}

func (c *Cache) store(k cacheKey, rep *Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; ok {
		c.hits++
		return
	}
	c.m[k] = rep
	c.misses++
}

func (c *Cache) markUncacheable() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.uncacheable++
}

// TryAnalyzeFilterIn is AnalyzeFilterIn with fault injection: when the
// executor carries a plan, the sym.filter site may fail the analysis with a
// host-level error (keyed by module and filter offset, parameterized by the
// executor's FaultAttempt) before any execution happens. The discover
// pipeline's retry wrapper drives the attempt number; without a plan this
// is exactly AnalyzeFilterIn.
func (e *Executor) TryAnalyzeFilterIn(mod *bin.Module, off uint32) (Report, error) {
	if e.FaultPlan != nil {
		key := faultinject.Key(mod.Image.Name, "filter", fmt.Sprintf("%#x", off))
		if err := e.FaultPlan.ErrAttempt(faultinject.SiteSymFilter, key, e.FaultAttempt); err != nil {
			return Report{}, fmt.Errorf("symex %s filter %#x: %w", mod.Image.Name, off, err)
		}
	}
	return e.AnalyzeFilterIn(mod, off), nil
}

// AnalyzeFilterIn classifies the filter at flat offset off inside mod,
// answering from the attached cache when the filter body has been analyzed
// before. Without a cache it is equivalent to AnalyzeFilter(mod.VA(off)).
func (e *Executor) AnalyzeFilterIn(mod *bin.Module, off uint32) Report {
	e.lastPure = false
	if e.Cache == nil {
		return e.AnalyzeFilter(mod.VA(off))
	}
	body := filterBody(mod.Image, off)
	if body == nil {
		e.Cache.markUncacheable()
		return e.AnalyzeFilter(mod.VA(off))
	}
	key := cacheKey{disposition: vm.DispositionExecuteHandler, body: string(body)}
	va := mod.VA(off)
	if rep, ok := e.Cache.lookup(key); ok {
		e.lastPure = true
		out := *rep
		out.FilterVA = va
		return out
	}
	e.tracking = true
	e.trackLo = va
	e.trackHi = va + uint64(len(body))
	e.pure = true
	rep := e.analyze(va, vm.DispositionExecuteHandler)
	pure := e.pure
	e.tracking = false
	e.lastPure = pure
	if pure {
		stored := rep
		e.Cache.store(key, &stored)
	} else {
		e.Cache.markUncacheable()
	}
	return rep
}

// LastAnalysisPure reports whether the most recent AnalyzeFilterIn was pure:
// its verdict depended on the filter's body bytes alone, not on module
// placement, imports, or image data. Pure verdicts are position- and
// seed-independent, which is what licenses persisting them beyond the
// process (see internal/cas); an impure or symbol-less analysis poisons the
// module for persistence.
func (e *Executor) LastAnalysisPure() bool { return e.lastPure }

// filterBody extracts the byte range of the function symbol starting at
// off, or nil when no sized symbol starts exactly there.
func filterBody(img *bin.Image, off uint32) []byte {
	s, ok := img.SymbolAt(off)
	if !ok || s.Offset != off || s.Size == 0 {
		return nil
	}
	end := uint64(s.Offset) + uint64(s.Size)
	if end > uint64(len(img.Text)) {
		return nil
	}
	return img.Text[s.Offset:end]
}
