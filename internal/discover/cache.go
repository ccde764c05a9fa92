package discover

// Persistent-cache wiring for the three pipelines. Each cacheable unit is
// keyed by a content hash of everything its result depends on — target
// bytes, seed, corruption address, candidate identity — so a changed byte
// anywhere in the inputs invalidates exactly that unit and nothing else.
// Entries store the result *and* its deterministic costs (virtual clock,
// VM/kernel counters, symbolic steps), so a warm hit makes the same charge
// (ledger.go) as the cold compute: reports stay byte-identical, and every
// observer agrees whether a unit was computed or served from disk. Every
// cached stage goes through cachedUnit, the one lookup-compute-store
// protocol, and each family has one entry type: the value cachedUnit
// returns, whether computed or read.
//
// Four key families:
//
//	seh-symex         marshaled DLL image bytes → filter verdicts +
//	                  Table III tallies. Persisted only when every filter
//	                  analysis in the module was pure (a function of body
//	                  bytes alone, see sym.Executor.LastAnalysisPure), so
//	                  entries are position- and seed-independent.
//	api-fuzz          API corpus params + seed + descriptor → the fuzzing
//	                  battery's FuncResult.
//	api-classify      browser content digest + seed + corruption address +
//	                  API + observed argument → controllability verdict.
//	syscall-validate  server image bytes + seed + corruption address +
//	                  candidate → validation Finding.
//
// Chaos runs (a pipeline-level fault plan) bypass the persistent cache in
// both directions: injected analysis faults change computed results, which
// must neither be served from nor leak into the cache shared with clean
// runs. The cache's own cas.read/cas.write fault sites remain exercisable
// by attaching a plan to the cache itself.

import (
	"encoding/json"

	"crashresist/internal/bin"
	"crashresist/internal/cas"
	"crashresist/internal/fuzz"
	"crashresist/internal/kernel"
	"crashresist/internal/sym"
	"crashresist/internal/vm"
	"crashresist/internal/winapi"
)

// Cache key families (on-disk directory names).
const (
	casFamilySEH      = "seh-symex"
	casFamilyFuzz     = "api-fuzz"
	casFamilyClassify = "api-classify"
	casFamilyValidate = "syscall-validate"
)

// cachedUnit returns one unit's entry from the cache or by computing it:
// the one cache protocol of every cached stage. Without a cache, or when
// key cannot key the unit, it only computes. Otherwise it makes one charge
// for the lookup (a hit with the entry bytes read, or a miss, and a bad
// entry), computes on a miss, and stores the entry when compute reports it
// storable, with one charge for the bytes written. An entry read on a warm
// hit has the same encoded size as the cold run's store of it, so per-unit
// cache byte charges agree between cold and warm runs. The decode target
// lives in the cached branch alone, so an uncached unit allocates nothing
// here.
func cachedUnit[E any](r *pipelineRun, family, stage, unit string, key func() (cas.Key, bool), compute func() (E, bool, error)) (E, error) {
	var k cas.Key
	cached := r.Cache != nil
	if cached {
		k, cached = key()
	}
	if cached {
		var e E
		res := r.Cache.Get(family, k, &e)
		c := charge{stage: stage, unit: unit}
		if res.Hit {
			c.cacheHits, c.cacheBytes = 1, res.Bytes
		} else {
			c.cacheMisses = 1
		}
		if res.Bad {
			c.cacheBad = 1
		}
		r.charge(c)
		if res.Hit {
			return e, nil
		}
	}
	e, storable, err := compute()
	if err != nil || !cached || !storable {
		return e, err
	}
	if res := r.Cache.Put(family, k, e); res.Stored {
		r.charge(charge{stage: stage, unit: unit, cacheBytes: res.Bytes})
	}
	return e, nil
}

// sehSymexEntry is one module's filter classification: a symex job's
// result, its persisted form and the cross-ref stage's input. ClassSteps
// carries the per-filter-class step breakdown the cost profiler
// attributes, so warm hits charge identical stacks to the cold compute.
type sehSymexEntry struct {
	Verdicts       map[uint32]sym.Verdict `json:"verdicts,omitempty"`
	AVFilters      int                    `json:"av_filters,omitempty"`
	UnknownFilters int                    `json:"unknown_filters,omitempty"`
	// Steps sums the symbolic steps across the module's filter analyses:
	// the module job's deterministic cost. The shared filter cache replays
	// stored Reports including their Steps, so the sum is identical no
	// matter which worker paid for the cache miss.
	Steps      uint64            `json:"steps,omitempty"`
	ClassSteps map[string]uint64 `json:"class_steps,omitempty"`
	// impure marks a module with a filter analysis that was not a function
	// of the body bytes alone; such a module is never persisted. The flag
	// is not encoded, so a decoded entry counts as pure.
	impure bool
}

// sehModuleKey keys a module's symex results by its full marshaled image —
// code, data, symbols, scope tables — so any changed byte re-analyzes
// exactly that DLL. v2 entries add the per-class step breakdown; bumping
// the schema string retires v1 entries (which lack it) by key mismatch
// rather than by a decode-time migration.
func sehModuleKey(img *bin.Image) (cas.Key, bool) {
	data, err := bin.Marshal(img)
	if err != nil {
		return cas.Key{}, false
	}
	return cas.NewHasher("seh-symex/v2").Bytes(data).Key(), true
}

// fuzzDescKey keys one descriptor's fuzzing battery. The corpus parameters
// pin the registry the probes call into; the descriptor fields pin
// the function's full calling contract. v2 entries add per-probe
// instruction counts; the schema bump retires v1 entries (which lack
// them) by key mismatch.
func fuzzDescKey(apiParams []byte, seed int64, d *winapi.Descriptor) cas.Key {
	h := cas.NewHasher("api-fuzz/v2").
		Bytes(apiParams).
		Int64(seed).
		String(d.Name).
		Uint64(uint64(d.ID)).
		Int(d.NArgs).
		Int(int(d.Cat)).
		Bool(d.Writes).
		Int(len(d.PtrArgs))
	for _, ai := range d.PtrArgs {
		h.Int(ai)
	}
	return h.Key()
}

// classifyCost carries a classification's deterministic cost for replay.
type classifyCost struct {
	Clock  uint64   `json:"clock,omitempty"`
	Stats  vm.Stats `json:"stats,omitempty"`
	HasEnv bool     `json:"has_env,omitempty"`
}

// classifyEntry is the persisted form of one API's controllability verdict.
type classifyEntry struct {
	Cls  APIClassification `json:"cls"`
	Cost classifyCost      `json:"cost"`
}

// classifyKey keys one API's corrupted-replay verdict. The replay loads the
// whole browser, so the key covers its full content digest: any changed
// byte in any module invalidates the verdict.
func classifyKey(digest []byte, seed int64, api string, obs argObservation) cas.Key {
	return cas.NewHasher("api-classify/v1").
		Bytes(digest).
		Int64(seed).
		Uint64(InvalidProbeAddr).
		String(api).
		Uint64(obs.value).
		Bool(obs.provOK).
		Uint64(obs.prov).
		Bool(obs.onStack).
		Key()
}

// validateCost carries a validation replay's deterministic cost.
type validateCost struct {
	Clock  uint64        `json:"clock,omitempty"`
	Stats  vm.Stats      `json:"stats,omitempty"`
	Kernel kernel.Counts `json:"kernel,omitempty"`
}

// validateEntry is the persisted form of one candidate's validation.
type validateEntry struct {
	Finding Finding      `json:"finding"`
	Cost    validateCost `json:"cost"`
}

// validateKey keys one candidate's corrupted-suite replay by the server's
// marshaled image, the run seed, the corruption value and the candidate's
// identity (syscall, argument, provenance address, taint, count). v2
// entries add the kernel's fault-event bucket series to the stored cost;
// the schema bump retires v1 entries (which lack it) by key mismatch.
func validateKey(srvImage []byte, name string, seed int64, cand Candidate) cas.Key {
	return cas.NewHasher("syscall-validate/v2").
		String(name).
		Bytes(srvImage).
		Int64(seed).
		Uint64(InvalidProbeAddr).
		String(cand.Syscall).
		Uint64(cand.Num).
		Int(cand.ArgIndex).
		Uint64(cand.Provenance).
		Uint64(cand.TaintMask).
		Int(cand.Count).
		Key()
}

// marshalAPIParams canonicalizes the API corpus parameters for hashing.
func marshalAPIParams(p winapi.CorpusParams) []byte {
	data, err := json.Marshal(p)
	if err != nil {
		return nil
	}
	return data
}

// apiFuzzEntry aliases the fuzzing result; all fields are exported and
// round-trip through JSON unchanged.
type apiFuzzEntry = fuzz.FuncResult
