package discover

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"crashresist/internal/cas"
	"crashresist/internal/defense"
	"crashresist/internal/fuzz"
	"crashresist/internal/isa"
	"crashresist/internal/mem"
	"crashresist/internal/metrics"
	"crashresist/internal/taint"
	"crashresist/internal/targets"
	"crashresist/internal/trace"
	"crashresist/internal/vm"
	"crashresist/internal/winapi"
)

// ExclusionReason classifies why a JS-reachable crash-resistant API cannot
// be turned into a primitive — the three reasons of §V-B — or that it can.
type ExclusionReason uint8

// Reasons.
const (
	// ReasonStackTransient: the pointer argument is a short-lived stack
	// location (query functions called with stack-allocated structs).
	ReasonStackTransient ExclusionReason = iota + 1
	// ReasonVolatile: the pointer value has no stored reference in
	// memory, so an attacker's write primitive has nothing to target.
	ReasonVolatile
	// ReasonDerefOutside: the pointer is stored in corruptible memory,
	// but the surrounding code dereferences it outside the
	// crash-resistant function — corrupting it crashes the process.
	ReasonDerefOutside
	// ReasonControllable: the pointer is corruptible and the corrupted
	// call survives — a usable primitive.
	ReasonControllable
	// ReasonUntriggered: the corrupted replay never exercised the call.
	ReasonUntriggered
)

// String renders the reason.
func (r ExclusionReason) String() string {
	switch r {
	case ReasonStackTransient:
		return "stack-transient"
	case ReasonVolatile:
		return "volatile-pointer"
	case ReasonDerefOutside:
		return "deref-outside"
	case ReasonControllable:
		return "controllable"
	case ReasonUntriggered:
		return "untriggered"
	default:
		return "reason?"
	}
}

// reasonTokens are the stable JSON wire names.
var reasonTokens = map[ExclusionReason]string{
	ReasonStackTransient: "stack_transient",
	ReasonVolatile:       "volatile",
	ReasonDerefOutside:   "deref_outside",
	ReasonControllable:   "controllable",
	ReasonUntriggered:    "untriggered",
}

// Token returns the reason's stable wire name (the JSON token), used for
// provenance verdicts.
func (r ExclusionReason) Token() string {
	if tok, ok := reasonTokens[r]; ok {
		return tok
	}
	return fmt.Sprintf("reason_%d", uint8(r))
}

// MarshalJSON encodes the reason as a stable string token.
func (r ExclusionReason) MarshalJSON() ([]byte, error) {
	tok, ok := reasonTokens[r]
	if !ok {
		return nil, fmt.Errorf("marshal: invalid exclusion reason %d", uint8(r))
	}
	return []byte(`"` + tok + `"`), nil
}

// UnmarshalJSON decodes a reason token.
func (r *ExclusionReason) UnmarshalJSON(b []byte) error {
	s := string(b)
	for val, tok := range reasonTokens {
		if s == `"`+tok+`"` {
			*r = val
			return nil
		}
	}
	return fmt.Errorf("unmarshal: unknown exclusion reason %s", s)
}

// APIClassification is the final-stage result for one JS-context API.
type APIClassification struct {
	API        string          `json:"api"`
	Reason     ExclusionReason `json:"reason"`
	Provenance uint64          `json:"provenance,omitempty"` // pointer storage address (when one exists)
	Detail     string          `json:"detail,omitempty"`
}

// APIFunnelReport reproduces the §V-B funnel.
type APIFunnelReport struct {
	// Schema versions the report's wire format (WireSchemaV1).
	Schema  string `json:"schema"`
	Browser string `json:"browser"`
	// The funnel: 20,672 → 11,521 → 400 → 25 → 12 → 0 in the paper.
	Total          int `json:"total"`           // API functions in the corpus
	WithPointer    int `json:"with_pointer"`    // with at least one documented pointer argument
	CrashResistant int `json:"crash_resistant"` // surviving the invalid-pointer fuzzing battery
	OnPath         int `json:"on_path"`         // crash-resistant and observed on the browse path
	JSContext      int `json:"js_context"`      // of those, reachable from the scripting context
	Controllable   int `json:"controllable"`    // of those, with a corruptible, safely-probing pointer

	// OnPathAPIs and JSContextAPIs name the surviving functions.
	OnPathAPIs    []string `json:"on_path_apis,omitempty"`
	JSContextAPIs []string `json:"js_context_apis,omitempty"`
	// Classifications explain each JS-context API's fate.
	Classifications []APIClassification `json:"classifications,omitempty"`
	// Provenance holds one evidence chain per classified API (fuzz battery
	// → browse harvest → controllability verdict). Exported via JSON only;
	// table formatters never read it.
	Provenance []PrimitiveProvenance `json:"provenance,omitempty"`
	// Stats is the run's observability record (never rendered in tables).
	Stats *metrics.RunStats `json:"stats,omitempty"`
	// Degraded lists jobs dropped after exhausting their retry budget;
	// empty unless a fault plan or retry budget is configured.
	Degraded []Degraded `json:"degraded,omitempty"`
}

// AnalyzeAPIs runs the Windows-API pipeline against a browser target:
// fuzzing, call-site harvesting, context filtering and controllability
// classification, checking ctx between stages and before each fuzzing or
// classification job. The fuzzing battery fans out across the worker pool
// one descriptor per job (each probe already runs in its own single-shot
// harness process), and the final controllability stage fans out per
// JS-context API (each replay builds its own environment). Both stages
// write into index-addressed slices, keeping the funnel byte-identical for
// any worker count.
func AnalyzeAPIs(ctx context.Context, cfg Config, br *targets.Browser) (*APIFunnelReport, error) {
	r := cfg.begin("api", br.Name)
	var apiParams []byte
	if r.Cache != nil {
		apiParams = marshalAPIParams(br.Params.API)
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 1: select the pointer-taking descriptors of the browser's API
	// corpus in registry order. The fuzzer calls the corpus without the
	// natives an environment layers over it.
	span := r.col.StartStage("corpus", 0)
	reg := br.APIs()
	fz := fuzz.New(reg, r.Seed)
	fz.FaultPlan = r.FaultPlan
	var ptrAPIs []*winapi.Descriptor
	for _, d := range reg.All() {
		if d.HasPointerArg() {
			ptrAPIs = append(ptrAPIs, d)
		}
	}
	span.End()

	// Stage 2-3: black-box fuzzing of the corpus, sharded per descriptor.
	results := make([]fuzz.FuncResult, len(ptrAPIs))
	err := fanOut(ctx, r, "fuzz", len(ptrAPIs), func(i int) string { return ptrAPIs[i].Name }, nil,
		func(_ struct{}, i int, api string, _ int) (charge, error) {
			ent, err := cachedUnit(r, casFamilyFuzz, "fuzz", api,
				func() (cas.Key, bool) { return fuzzDescKey(apiParams, r.Seed, ptrAPIs[i]), apiParams != nil },
				func() (apiFuzzEntry, bool, error) {
					res, err := fz.FuzzOne(ptrAPIs[i])
					return res, true, err
				})
			if err != nil {
				return charge{}, fmt.Errorf("fuzz %s: %w", api, err)
			}
			results[i] = ent
			// The harness processes' summed instruction count is the job's
			// deterministic cost.
			return charge{sample: ent.Stats.Instructions, vm: ent.Stats, probes: ent.Probes, sight: r.fuzzSighting(ent)}, nil
		})
	if err != nil {
		return nil, fmt.Errorf("fuzz corpus: %w", err)
	}
	// A degraded fuzz slot keeps its zero FuncResult, i.e. the API is
	// conservatively treated as not crash-resistant.
	resistant := make(map[string]bool)
	crashResistant := 0
	for _, fres := range results {
		if fres.CrashResistant {
			resistant[fres.Name] = true
			crashResistant++
		}
	}

	report := &APIFunnelReport{
		Schema:         WireSchemaV1,
		Browser:        br.Name,
		Total:          reg.Len(),
		WithPointer:    len(ptrAPIs),
		CrashResistant: crashResistant,
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 4-5: instrumented browse — call-site harvesting and context
	// tagging.
	span = r.col.StartStage("harvest", 0)
	var obs *browseObservation
	err = r.runJob(ctx, "harvest", br.Name, 0, func(int) error {
		o, err := r.observeBrowse(br, span)
		if err != nil {
			return err
		}
		obs = o
		return nil
	})
	span.End()
	if err != nil {
		return nil, fmt.Errorf("browse %s: %w", br.Name, err)
	}
	// A degraded harvest behaves like a browse that called nothing: the
	// funnel narrows to zero past the fuzzing stage.
	if obs == nil {
		obs = &browseObservation{}
	}
	for name, fromJS := range obs.called {
		if resistant[name] {
			report.OnPathAPIs = append(report.OnPathAPIs, name)
			if fromJS {
				report.JSContextAPIs = append(report.JSContextAPIs, name)
			}
		}
	}
	sort.Strings(report.OnPathAPIs)
	sort.Strings(report.JSContextAPIs)
	report.OnPath = len(report.OnPathAPIs)
	report.JSContext = len(report.JSContextAPIs)

	// Stage 6: pointer-argument controllability for the JS-context set,
	// one corrupted browse per API with a stored pointer. The first job
	// that misses the cache runs the watch browse the others fork from.
	var slots []uint64
	for _, api := range report.JSContextAPIs {
		if arg := obs.args[api]; !arg.onStack && arg.provOK {
			slots = append(slots, arg.prov)
		}
	}
	watch := sync.OnceValue(func() *classifyWatch { return r.watchBrowse(br, slots) })
	classifications := make([]APIClassification, len(report.JSContextAPIs))
	err = fanOut(ctx, r, "classify", len(report.JSContextAPIs), func(i int) string { return report.JSContextAPIs[i] }, nil,
		func(_ struct{}, i int, api string, _ int) (charge, error) {
			ent, err := cachedUnit(r, casFamilyClassify, "classify", api,
				func() (cas.Key, bool) {
					digest, err := br.ContentDigest()
					return classifyKey(digest, r.Seed, api, obs.args[api]), err == nil
				},
				func() (classifyEntry, bool, error) {
					cls, cost, _, err := r.classify(br, api, obs.args[api], watch)
					return classifyEntry{Cls: cls, Cost: cost}, true, err
				})
			if err != nil {
				return charge{}, fmt.Errorf("classify %s: %w", api, err)
			}
			classifications[i] = ent.Cls
			// The corrupted browse's virtual clock, prefix included, is the
			// job's deterministic cost; statically-excluded APIs ran no
			// browse and record zero.
			return charge{sample: ent.Cost.Clock, clock: ent.Cost.Clock, vm: ent.Cost.Stats}, nil
		})
	if err != nil {
		return nil, err
	}
	// Degraded classify slots hold the zero value, whose invalid Reason
	// cannot marshal — compact them out (their APIs appear in Degraded).
	for _, cls := range classifications {
		if cls.Reason == 0 {
			continue
		}
		report.Classifications = append(report.Classifications, cls)
		if cls.Reason == ReasonControllable {
			report.Controllable++
		}
	}
	fuzzByName := make(map[string]*fuzz.FuncResult, len(results))
	for i := range results {
		fuzzByName[results[i].Name] = &results[i]
	}
	for _, cls := range report.Classifications {
		chain := make([]EvidenceStep, 0, 3)
		if fres := fuzzByName[cls.API]; fres != nil {
			graceful := 0
			for _, p := range fres.Probes {
				if p.Outcome == fuzz.OutcomeGraceful {
					graceful++
				}
			}
			chain = append(chain, step("fuzz", "crash_resistant",
				"%d/%d invalid-pointer probes returned gracefully", graceful, len(fres.Probes)))
		}
		harvest := step("harvest", "js_context",
			"observed on the browse path with a call from the scripting context")
		if arg, ok := obs.args[cls.API]; ok && arg.provOK {
			harvest.Detail += fmt.Sprintf("; pointer arg %#x stored at %#x", arg.value, arg.prov)
		}
		chain = append(chain, harvest, step("classify", cls.Reason.Token(), "%s", cls.Detail))
		report.Provenance = append(report.Provenance, PrimitiveProvenance{Primitive: cls.API, Chain: chain})
	}
	report.Degraded, report.Stats, err = r.finish()
	if err != nil {
		return nil, err
	}
	return report, nil
}

// argObservation captures one API call's pointer-argument state.
type argObservation struct {
	value   uint64
	provOK  bool
	prov    uint64
	onStack bool
}

type browseObservation struct {
	// called maps each API the browse called to whether any call's stack
	// passed through the scripting engine.
	called map[string]bool
	args   map[string]argObservation
}

// apiArgTracer extends the generic recorder, which harvests the called
// APIs and their calling context, with the capture of each API's first
// pointer argument at its first call.
type apiArgTracer struct {
	*trace.Recorder

	reg   *winapi.Registry
	taint *taint.Engine
	args  map[string]argObservation
}

// OnAPICall records the first observation of each API's first pointer arg.
func (a *apiArgTracer) OnAPICall(t *vm.Thread, callPC uint64, id uint32) {
	a.Recorder.OnAPICall(t, callPC, id)
	d, ok := a.reg.ByID(id)
	if !ok {
		return
	}
	if _, seen := a.args[d.Name]; seen || len(d.PtrArgs) == 0 {
		return
	}
	reg := isa.Register(1 + d.PtrArgs[0])
	val := t.Reg(reg)
	prov, provOK := a.taint.RegProvenance(t.ID, reg)
	a.args[d.Name] = argObservation{
		value:   val,
		provOK:  provOK,
		prov:    prov,
		onStack: t.OnStack(val) || (provOK && t.OnStack(prov)),
	}
}

// fuzzSighting is one API's fuzzing battery as the detector sees it, for
// crash-resistant APIs when detection is on: every battery probe is one
// oracle query, and every ErrInvalidPointer return is a kernel-validated
// rejection — the Windows analogue of an EFAULT return, and exactly what a
// kernel-boundary defender counts (crash-resistant APIs raise no user-mode
// fault). The harness processes each start at virtual clock zero, so their
// rejections land in the run stream's first virtual second.
func (r *pipelineRun) fuzzSighting(res fuzz.FuncResult) sighting {
	if r.det == nil || !res.CrashResistant {
		return sighting{}
	}
	var faults uint64
	for _, pr := range res.Probes {
		if pr.Outcome == fuzz.OutcomeGraceful && pr.Ret == winapi.ErrInvalidPointer {
			faults++
		}
	}
	s := sighting{primitive: res.Name, probes: uint64(len(res.Probes)), faults: faults, ticks: res.Stats.Instructions}
	if faults > 0 {
		s.stream = map[uint64]uint64{0: faults}
	}
	return s
}

// browseSighting is an instrumented browse's benign baseline: the
// exception log, recorded with EnableExceptionLog while detection is on,
// bucketed into the baseline series and the run-level stream.
func browseSighting(rec *trace.Recorder, ticks uint64) sighting {
	series := defense.BucketExc(rec.Exceptions())
	var faults uint64
	for _, n := range series {
		faults += n
	}
	return sighting{phase: "browse", faults: faults, ticks: ticks, series: series, stream: series}
}

// observeBrowse runs one instrumented browse.
func (r *pipelineRun) observeBrowse(br *targets.Browser, span *metrics.Stage) (*browseObservation, error) {
	env, err := br.NewEnv(r.Seed)
	if err != nil {
		return nil, err
	}
	env.Proc.FaultPlan = r.FaultPlan
	te := taint.New()
	te.Attach(env.Proc)

	rec := trace.NewRecorder()
	rec.EnableAPIHarvest()
	rec.AddContextModule("jscript9.dll")
	if r.det != nil {
		rec.EnableExceptionLog()
	}

	tracer := &apiArgTracer{Recorder: rec, reg: env.Reg, taint: te, args: make(map[string]argObservation)}
	rec.Attach(env.Proc)
	env.Proc.Tracer = tracer

	if err := env.Start(); err != nil {
		return nil, err
	}
	browseErr := env.Browse()
	r.charge(charge{
		stage: "harvest", unit: "browse", span: span, sample: env.Proc.Clock,
		clock: env.Proc.Clock, vm: env.Proc.Stats, sight: browseSighting(rec, env.Proc.Clock),
	})
	if browseErr != nil {
		return nil, browseErr
	}
	obs := &browseObservation{called: make(map[string]bool), args: tracer.args}
	for id, st := range rec.APIs() {
		if d, ok := env.Reg.ByID(id); ok {
			obs.called[d.Name] = st.FromContext
		}
	}
	return obs, nil
}

// classify decides an API's exclusion reason from its observed argument and
// (when a corruptible pointer exists) a corrupted browse. The returned cost
// carries the corrupted browse's deterministic counters; the caller observes
// them, so a cache hit can replay the identical observations.
//
// The corrupted browse forks the watch browse's snapshot of the Run slice
// holding the slot's first read, corrupts the slot there and finishes the
// browse; forked reports whether it did. A slot the watch cannot vouch for
// (see classifyWatch.snapshotFor), or a run with fullReplay set, takes the
// full replay instead: it rebuilds the environment (same seed, same
// layout), corrupts the slot and browses from the start. Both give the same
// verdict, clock and Stats.
func (r *pipelineRun) classify(br *targets.Browser, api string, obs argObservation, watch func() *classifyWatch) (cls APIClassification, cost classifyCost, forked bool, err error) {
	cls = APIClassification{API: api}
	switch {
	case obs.onStack:
		cls.Reason = ReasonStackTransient
		cls.Detail = fmt.Sprintf("pointer %#x lives on a thread stack", obs.value)
		return cls, classifyCost{}, false, nil
	case !obs.provOK:
		cls.Reason = ReasonVolatile
		cls.Detail = fmt.Sprintf("pointer %#x has no stored reference", obs.value)
		return cls, classifyCost{}, false, nil
	}
	cls.Provenance = obs.prov

	if !r.fullReplay {
		if snap := watch().snapshotFor(obs.prov); snap != nil {
			env, err := snap.Fork()
			if err != nil {
				return cls, classifyCost{}, false, err
			}
			corruptSlot(env, obs.prov)
			browseVerdict(&cls, env, env.ResumeBrowse())
			return cls, costOf(env), true, nil
		}
	}

	env, err := br.NewEnv(r.Seed)
	if err != nil {
		return cls, classifyCost{}, false, err
	}
	env.Proc.FaultPlan = r.FaultPlan
	corruptSlot(env, obs.prov)
	if err := env.Start(); err != nil {
		cls.Reason = ReasonDerefOutside
		cls.Detail = fmt.Sprintf("corrupted startup crash: %v", env.Proc.Crash)
		return cls, costOf(env), false, nil
	}
	browseVerdict(&cls, env, env.Browse())
	return cls, costOf(env), false, nil
}

// corruptSlot corrupts the pointer slot at prov now and after every later
// program store to it.
func corruptSlot(env *targets.BrowserEnv, prov uint64) {
	cor := &corruptingFlow{as: env.Proc.AS, target: prov, value: InvalidProbeAddr}
	env.Proc.Flow = cor
	cor.corrupt()
}

// browseVerdict classifies a corrupted browse by how it ended.
func browseVerdict(cls *APIClassification, env *targets.BrowserEnv, browseErr error) {
	switch {
	case env.Proc.State == vm.ProcCrashed:
		cls.Reason = ReasonDerefOutside
		cls.Detail = fmt.Sprintf("pointer dereferenced outside the API: %v", env.Proc.Crash)
	case browseErr != nil:
		cls.Reason = ReasonUntriggered
		cls.Detail = browseErr.Error()
	default:
		cls.Reason = ReasonControllable
		cls.Detail = "corrupted call returned gracefully; probe primitive usable"
	}
}

// costOf is a corrupted browse's deterministic cost.
func costOf(env *targets.BrowserEnv) classifyCost {
	return classifyCost{Clock: env.Proc.Clock, Stats: env.Proc.Stats, HasEnv: true}
}

// classifyWatch is what the classify stage's watch browse saw: one clean
// browse, without taint, that watched every classify slot and kept a
// snapshot of the start of each Run slice of its browse.
type classifyWatch struct {
	snaps []*targets.BrowseSnapshot
	slots map[uint64]*slotWatch
}

// slotWatch is what the watch browse saw of one 8-byte pointer slot.
type slotWatch struct {
	// mapped: all 8 bytes were mapped when the environment was built.
	mapped bool
	// read: the slot was read (a VM load, an API stub's read, a kernel
	// copy or an instruction fetch), first in Run slice slice, or in
	// Start when slice is -1.
	read  bool
	slice int
	// touched: something wrote, mapped or unmapped the slot's bytes
	// before its first read.
	touched bool
}

// snapshotFor returns the snapshot a classify of the slot at addr forks, or
// nil when it must run the full replay. A fork equals the replay only when
// the slot's 8 bytes were mapped when the environment was built, nothing
// wrote, unmapped or remapped them before their first read, and that read
// fell in the browse rather than in Start: until its first slice, the
// replay then ran exactly as the clean browse did, but for bytes nothing
// read.
func (w *classifyWatch) snapshotFor(addr uint64) *targets.BrowseSnapshot {
	if w == nil {
		return nil
	}
	s := w.slots[addr]
	if s == nil || !s.mapped || !s.read || s.touched || s.slice < 0 || s.slice >= len(w.snaps) {
		return nil
	}
	return w.snaps[s.slice]
}

// watchBrowse runs the classify stage's watch browse over the slots at
// addrs: one clean browse without taint, under the run's fault plan. It is
// host work alone: it charges nothing, opens no span and sends no progress
// event. A browse that fails partway keeps what it saw before; a slot it
// never saw read falls back to the full replay, and so does every slot when
// the environment cannot be built.
func (r *pipelineRun) watchBrowse(br *targets.Browser, addrs []uint64) *classifyWatch {
	if r.watches != nil {
		r.watches.Add(1)
	}
	env, err := br.NewEnv(r.Seed)
	if err != nil {
		return nil
	}
	env.Proc.FaultPlan = r.FaultPlan
	as := env.Proc.AS
	w := &classifyWatch{slots: make(map[uint64]*slotWatch, len(addrs))}
	slice := -1
	// onPage lists the slots holding bytes of each watched page.
	onPage := make(map[uint64][]uint64)
	seen := func(ev mem.WatchEvent, addr, length uint64) {
		for _, slot := range onPage[addr/mem.PageSize] {
			s := w.slots[slot]
			if s.read || s.touched || addr >= slot+8 || slot >= addr+length {
				continue
			}
			if ev == mem.WatchRead || ev == mem.WatchFetch {
				s.read, s.slice = true, slice
			} else {
				s.touched = true
			}
		}
	}
	for _, a := range addrs {
		if _, dup := w.slots[a]; dup {
			continue
		}
		w.slots[a] = &slotWatch{mapped: a+7 > a && as.Mapped(a) && as.Mapped(a+7)}
		onPage[a/mem.PageSize] = append(onPage[a/mem.PageSize], a)
		if (a+7)/mem.PageSize != a/mem.PageSize {
			onPage[(a+7)/mem.PageSize] = append(onPage[(a+7)/mem.PageSize], a)
		}
		as.Watch(a, 8, seen)
	}
	if env.Start() != nil {
		return w
	}
	_ = env.BrowseSnapshots(func(i int, snap *targets.BrowseSnapshot) {
		slice = i
		w.snaps = append(w.snaps, snap)
	})
	return w
}
