package discover

import (
	"context"
	"fmt"
	"sort"

	"crashresist/internal/bin"
	"crashresist/internal/cas"
	"crashresist/internal/metrics"
	"crashresist/internal/seh"
	"crashresist/internal/sym"
	"crashresist/internal/targets"
	"crashresist/internal/trace"
)

// ModuleSEH is one row of Tables II/III for a loaded module.
type ModuleSEH struct {
	Module string `json:"module"`
	// Table II columns.
	Handlers   int `json:"handlers"`    // guarded code locations before symbolic execution
	AVHandlers int `json:"av_handlers"` // guarded by AV-accepting filters or catch-all, after SE
	OnPath     int `json:"on_path"`     // of the accepting set, seen on the browse path
	// Table III columns.
	Filters        int `json:"filters"`         // unique filter functions before SE
	AVFilters      int `json:"av_filters"`      // accepting access violations, after SE
	UnknownFilters int `json:"unknown_filters"` // outside the symbolic executor's fragment (manual)
	CatchAll       int `json:"catch_all"`       // catch-all scope entries (not filter functions)
}

// SEHCandidate is one crash-resistant handler candidate on the execution
// path — the set handed to manual vetting in the paper.
type SEHCandidate struct {
	Module   string `json:"module"`
	Scope    int    `json:"scope"`
	FuncName string `json:"func_name"`
	CatchAll bool   `json:"catch_all"`
	Hits     uint64 `json:"hits"`
}

// SEHReport is the exception-handler pipeline result for one browser.
type SEHReport struct {
	// Schema versions the report's wire format (WireSchemaV1).
	Schema  string      `json:"schema"`
	Browser string      `json:"browser"`
	Modules []ModuleSEH `json:"modules,omitempty"`
	// Totals across all modules.
	TotalModules    int `json:"total_modules"`
	TotalHandlers   int `json:"total_handlers"`
	TotalFilters    int `json:"total_filters"`
	TotalAVFilters  int `json:"total_av_filters"`
	TotalAVHandlers int `json:"total_av_handlers"`
	TotalOnPath     int `json:"total_on_path"`
	// TriggerEvents counts executions of accepting guarded locations
	// during the browse run (736,512 in the paper).
	TriggerEvents uint64 `json:"trigger_events"`
	// Candidates lists the on-path accepting handlers.
	Candidates []SEHCandidate `json:"candidates,omitempty"`
	// Provenance holds one evidence chain per candidate (scope-table
	// extraction → filter symex verdict → coverage cross-ref), keyed
	// "<module>/scope-<index>". Exported via JSON only; table formatters
	// never read it.
	Provenance []PrimitiveProvenance `json:"provenance,omitempty"`
	// UnknownFilterModules lists modules whose filters need manual
	// vetting (the §VII-A post-update IE case).
	UnknownFilterModules []string `json:"unknown_filter_modules,omitempty"`
	// VEHRegistered reports run-time vectored handlers present in the
	// process that the scope-table pipeline cannot attribute to any
	// static metadata (the §VII-A Firefox miss).
	VEHRegistered int `json:"veh_registered"`
	// VEHFindings is the §VII-A *extension* the paper proposes: static
	// discovery of AddVectoredExceptionHandler registrations with
	// handler-argument recovery and symbolic classification.
	VEHFindings []VEHFinding `json:"veh_findings,omitempty"`
	// Stats is the run's observability record (never rendered in tables).
	Stats *metrics.RunStats `json:"stats,omitempty"`
	// Degraded lists jobs dropped after exhausting their retry budget;
	// empty unless a fault plan or retry budget is configured.
	Degraded []Degraded `json:"degraded,omitempty"`
}

// Row returns the module row by name.
func (r *SEHReport) Row(module string) (ModuleSEH, bool) {
	for _, m := range r.Modules {
		if m.Module == module {
			return m, true
		}
	}
	return ModuleSEH{}, false
}

// AnalyzeSEH runs the exception-handler pipeline against a browser:
// scope-table extraction, symbolic execution of each unique filter, an
// instrumented browse for coverage, and the cross-reference of the two,
// checking ctx between stages and before each per-DLL symex job. Only
// symex fans out: every worker owns a private process environment and
// symbolic executor, sharing only the memoizing filter cache, and results
// land in an index-addressed slice keyed by module load order, so the
// report is byte-identical for any worker count.
func AnalyzeSEH(ctx context.Context, cfg Config, br *targets.Browser) (*SEHReport, error) {
	r := cfg.begin("seh", br.Name)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 1: instrumented browse for coverage, plus the run-time VEH
	// census and the §VII-A registration scan. Each retry rebuilds the
	// environment from scratch (same seed, same layout).
	span := r.col.StartStage("browse", 0)
	var (
		env  *targets.BrowserEnv
		hits map[trace.ScopeKey]uint64
	)
	err := r.runJob(ctx, "browse", br.Name, 0, func(int) error {
		e, err := br.NewEnv(r.Seed)
		if err != nil {
			return err
		}
		e.Proc.FaultPlan = r.FaultPlan
		rec := trace.NewRecorder()
		rec.EnableCoverage()
		if r.det != nil {
			rec.EnableExceptionLog()
		}
		rec.Attach(e.Proc)

		if err := e.Start(); err != nil {
			return err
		}
		browseErr := e.Browse()
		c := charge{
			stage: "browse", unit: "browse", span: span, sample: e.Proc.Clock,
			clock: e.Proc.Clock, vm: e.Proc.Stats,
		}
		// Only a completed browse is the benign baseline.
		if browseErr == nil {
			c.sight = browseSighting(rec, e.Proc.Clock)
		}
		r.charge(c)
		if browseErr != nil {
			return browseErr
		}
		env, hits = e, rec.ScopeHits()
		return nil
	})
	span.End()
	if err != nil {
		return nil, fmt.Errorf("browse: %w", err)
	}

	report := &SEHReport{Schema: WireSchemaV1, Browser: br.Name}

	// The paper's per-DLL analysis covers libraries; the executable
	// itself carries no scope tables here. A degraded browse leaves no
	// environment: the report keeps its totals at zero and records the
	// loss in Degraded.
	var libs []string
	if env != nil {
		report.VEHRegistered = len(env.Proc.VEHandlers())
		report.VEHFindings = VEHScan(env.Proc)
		for _, mod := range env.Proc.Modules() {
			if mod.Image.Kind == bin.KindLibrary {
				libs = append(libs, mod.Image.Name)
			}
		}
	}
	report.TotalModules = len(libs)

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 2: static scope-table extraction, sequential on the main
	// environment's modules. Modules without guarded locations are
	// analyzed but contribute no row and no symex work.
	invs := make([]seh.ModuleInventory, len(libs))
	span = r.col.StartStage("extract", len(libs))
	span.NameJobs(func(i int) string { return "extract/" + libs[i] })
	var work []int // indices into libs with at least one handler
	err = runIndexed(ctx, 1, len(libs), span, func(i int) error {
		mod, ok := env.Proc.Module(libs[i])
		if !ok {
			return fmt.Errorf("module %s missing from environment", libs[i])
		}
		invs[i] = seh.Extract(mod)
		return nil
	})
	span.End()
	if err != nil {
		return nil, err
	}
	for i := range invs {
		if len(invs[i].Handlers) > 0 {
			work = append(work, i)
		}
	}

	// Stage 3: symbolic execution of each unique filter, fanned out per
	// DLL with private worker environments and a shared memoizing cache.
	cache := sym.NewCache()
	symex := make([]sehSymexEntry, len(work))
	symexOK := make([]bool, len(work))
	err = fanOut(ctx, r, "symex", len(work), func(w int) string { return libs[work[w]] },
		func() (*sym.Executor, error) {
			wenv, err := br.NewEnv(r.Seed)
			if err != nil {
				return nil, err
			}
			exec := sym.NewExecutor(wenv.Proc)
			exec.Cache = cache
			exec.FaultPlan = r.FaultPlan
			return exec, nil
		},
		func(exec *sym.Executor, w int, lib string, attempt int) (charge, error) {
			exec.FaultAttempt = attempt
			mod, ok := exec.Proc().Module(lib)
			if !ok {
				return charge{}, fmt.Errorf("module %s missing from worker environment", lib)
			}
			sx, err := cachedUnit(r, casFamilySEH, "symex", lib,
				func() (cas.Key, bool) { return sehModuleKey(mod.Image) },
				func() (sehSymexEntry, bool, error) {
					ent, err := classifyModuleFilters(exec, mod, invs[work[w]])
					return ent, !ent.impure, err
				})
			if err != nil {
				return charge{}, err
			}
			symex[w], symexOK[w] = sx, true
			return charge{sample: sx.Steps, classSteps: sx.ClassSteps}, nil
		})
	if err != nil {
		return nil, err
	}
	r.charge(charge{stage: "symex", symCache: cache.Stats()})

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 4: cross-reference accepting handlers with browse coverage,
	// sequentially in module load order.
	span = r.col.StartStage("cross-ref", len(work))
	for w, i := range work {
		span.JobDone()
		if !symexOK[w] {
			continue // degraded module: no row, recorded in Degraded
		}
		row, cands, triggers := crossRefModuleSEH(libs[i], invs[i], symex[w], hits)
		report.Modules = append(report.Modules, row)
		report.Candidates = append(report.Candidates, cands...)
		report.TriggerEvents += triggers
		if row.UnknownFilters > 0 {
			report.UnknownFilterModules = append(report.UnknownFilterModules, row.Module)
		}
		report.TotalHandlers += row.Handlers
		report.TotalFilters += row.Filters
		report.TotalAVFilters += row.AVFilters
		report.TotalAVHandlers += row.AVHandlers
		report.TotalOnPath += row.OnPath
	}
	span.End()

	sort.Slice(report.Candidates, func(i, j int) bool {
		if report.Candidates[i].Module != report.Candidates[j].Module {
			return report.Candidates[i].Module < report.Candidates[j].Module
		}
		return report.Candidates[i].Scope < report.Candidates[j].Scope
	})
	sort.Strings(report.UnknownFilterModules)

	// Evidence chains, one per candidate, in candidate order (so provenance
	// ordering follows the sorted rows, not module load order).
	invByModule := make(map[string]seh.ModuleInventory, len(work))
	sxByModule := make(map[string]sehSymexEntry, len(work))
	for w, i := range work {
		if symexOK[w] {
			invByModule[libs[i]] = invs[i]
			sxByModule[libs[i]] = symex[w]
		}
	}
	for _, c := range report.Candidates {
		primitive := fmt.Sprintf("%s/scope-%d", c.Module, c.Scope)
		// Driven as an oracle, each candidate raises one absorbed AV per
		// probe; the browse-measured trigger census is the detectability
		// row's probe loop.
		r.charge(charge{stage: "cross-ref", unit: primitive, sight: sighting{
			primitive: primitive, probes: c.Hits, faults: c.Hits, ticks: env.Proc.Clock,
		}})
		var handler seh.Handler
		for _, h := range invByModule[c.Module].Handlers {
			if h.Index == c.Scope {
				handler = h
				break
			}
		}
		extract := step("extract", "guarded_location",
			"scope entry %d of %s guards %s", c.Scope, c.Module, c.FuncName)
		var symexStep EvidenceStep
		if c.CatchAll {
			symexStep = step("symex", "catch_all",
				"catch-all scope entry: no filter, every exception class is accepted")
		} else {
			verdict := sxByModule[c.Module].Verdicts[handler.Entry.Filter]
			symexStep = step("symex", verdict.Token(),
				"filter at offset %#x classified %s by symbolic execution against the AV code",
				handler.Entry.Filter, verdict)
		}
		report.Provenance = append(report.Provenance, PrimitiveProvenance{
			Primitive: primitive,
			Chain: []EvidenceStep{
				extract,
				symexStep,
				step("crossref", "on_path",
					"guarded location triggered %d time(s) during the instrumented browse", c.Hits),
			},
		})
	}
	report.Degraded, report.Stats, err = r.finish()
	if err != nil {
		return nil, err
	}
	return report, nil
}

// classifyModuleFilters symbolically executes each unique filter of one
// module. It reads only the module, the inventory and the executor's own
// process, so module jobs are independent. With a fault plan attached to
// the executor an analysis may fail with an injected error, aborting the
// module so the whole unit can retry or degrade atomically.
func classifyModuleFilters(exec *sym.Executor, mod *bin.Module, inv seh.ModuleInventory) (sehSymexEntry, error) {
	res := sehSymexEntry{Verdicts: make(map[uint32]sym.Verdict, len(inv.Filters))}
	if len(inv.Filters) > 0 {
		res.ClassSteps = make(map[string]uint64, 3)
	}
	for _, f := range inv.Filters {
		rep, err := exec.TryAnalyzeFilterIn(mod, f)
		if err != nil {
			return sehSymexEntry{}, err
		}
		if !exec.LastAnalysisPure() {
			res.impure = true
		}
		res.Steps += uint64(rep.Steps)
		res.ClassSteps[rep.Verdict.ProfileClass()] += uint64(rep.Steps)
		res.Verdicts[f] = rep.Verdict
		switch rep.Verdict {
		case sym.VerdictAccepts:
			res.AVFilters++
		case sym.VerdictUnknown:
			res.UnknownFilters++
		}
	}
	return res, nil
}

// crossRefModuleSEH builds one module's table row from its inventory,
// filter verdicts and the browse coverage map.
func crossRefModuleSEH(module string, inv seh.ModuleInventory, sx sehSymexEntry, hits map[trace.ScopeKey]uint64) (ModuleSEH, []SEHCandidate, uint64) {
	row := ModuleSEH{
		Module:         module,
		Handlers:       len(inv.Handlers),
		Filters:        len(inv.Filters),
		AVFilters:      sx.AVFilters,
		UnknownFilters: sx.UnknownFilters,
	}
	var (
		cands    []SEHCandidate
		triggers uint64
	)
	for _, h := range inv.Handlers {
		accepting := false
		if h.IsCatchAll() {
			row.CatchAll++
			accepting = true
		} else if sx.Verdicts[h.Entry.Filter] == sym.VerdictAccepts {
			accepting = true
		}
		if !accepting {
			continue
		}
		row.AVHandlers++
		key := trace.ScopeKey{Module: module, Index: h.Index}
		if n := hits[key]; n > 0 {
			row.OnPath++
			triggers += n
			cands = append(cands, SEHCandidate{
				Module:   module,
				Scope:    h.Index,
				FuncName: h.FuncName,
				CatchAll: h.IsCatchAll(),
				Hits:     n,
			})
		}
	}
	return row, cands, triggers
}

// PriorWorkFindings reproduces §VII-A: whether the pipeline rediscovers the
// previously published primitives.
type PriorWorkFindings struct {
	// IECatchAllFound: the jscript9 MUTX::Enter catch-all scope entry is
	// among the accepting candidates.
	IECatchAllFound bool `json:"ie_catch_all_found"`
	// IEPostUpdateNeedsManual: the configuration-dependent filter calls
	// another function, so symbolic execution reports it unknown.
	IEPostUpdateNeedsManual bool `json:"ie_post_update_needs_manual"`
	// FirefoxVEHMissed: a run-time vectored handler exists in the
	// process but no scope-table candidate corresponds to it.
	FirefoxVEHMissed bool `json:"firefox_veh_missed"`
	// FirefoxVEHFoundByExtension: the §VII-A extension (static scanning
	// for AddVectoredExceptionHandler call sites) recovers the handler
	// and classifies it as resolving access violations.
	FirefoxVEHFoundByExtension bool `json:"firefox_veh_found_by_extension"`
}

// PriorWork inspects a report for the §VII-A verification cases.
func PriorWork(rep *SEHReport) PriorWorkFindings {
	var out PriorWorkFindings
	for _, c := range rep.Candidates {
		if c.Module == "jscript9.dll" && c.CatchAll && c.FuncName == "mutx_enter" {
			out.IECatchAllFound = true
		}
	}
	for _, m := range rep.UnknownFilterModules {
		if m == "jscript9.dll" {
			out.IEPostUpdateNeedsManual = true
		}
	}
	out.FirefoxVEHMissed = rep.VEHRegistered > 0
	for _, f := range rep.VEHFindings {
		if f.Resolved && f.Verdict == sym.VerdictAccepts {
			out.FirefoxVEHFoundByExtension = true
		}
	}
	return out
}
