// Package discover implements the paper's contribution: the three
// semi-automated pipelines that locate crash-resistant primitives in binary
// executables.
//
//   - AnalyzeServer (§IV-A): runs a server's test suite under byte-granular
//     taint tracking, flags EFAULT-capable syscalls whose pointer arguments
//     originate in attacker-writable memory, then validates each candidate by
//     corrupting the pointer at its storage location and replaying the suite
//     — reproducing Table I.
//   - AnalyzeAPIs (§IV-B): black-box fuzzes the platform API corpus, harvests
//     call sites from an instrumented browser run, filters for calls
//     reachable from a scripting context, and classifies pointer-argument
//     controllability — reproducing the §V-B funnel.
//   - AnalyzeSEH (§IV-C): statically extracts scope tables, symbolically
//     executes every filter against the access-violation code, and
//     cross-references survivors with execution coverage — reproducing
//     Tables II and III.
package discover

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"crashresist/internal/bin"
	"crashresist/internal/cas"
	"crashresist/internal/isa"
	"crashresist/internal/kernel"
	"crashresist/internal/mem"
	"crashresist/internal/metrics"
	"crashresist/internal/targets"
	"crashresist/internal/vm"
)

// InvalidProbeAddr is the unmapped address used to invalidate candidate
// pointers during validation. The user arena starts at 1<<32, so this is
// never mapped.
const InvalidProbeAddr = 0x00000000dead0000

// SyscallStatus classifies one (server, syscall) cell of Table I.
type SyscallStatus uint8

// Statuses, in increasing order of attacker value.
const (
	// StatusNotObserved: the syscall never executed during the suite.
	StatusNotObserved SyscallStatus = iota + 1
	// StatusObserved: executed, but no pointer argument is corruptible
	// (all pointer operands are code-derived or register-only).
	StatusObserved
	// StatusUntriggered: a corruptible pointer exists, but the corrupted
	// replay never drove the syscall into its EFAULT path, so nothing can
	// be concluded (the candidate is unconfirmed).
	StatusUntriggered
	// StatusInvalidCandidate: corrupting the pointer crashes the server —
	// the "±" cells of Table I.
	StatusInvalidCandidate
	// StatusFalsePositive: the naive aliveness validation passes but the
	// service check shows the server no longer processes connections —
	// Table I's Memcached epoll_wait entry.
	StatusFalsePositive
	// StatusUsable: the corrupted probe returns -EFAULT, the server stays
	// alive and keeps serving — a crash-resistant primitive ("⊕").
	StatusUsable
)

// String renders the status as in the paper's table legend.
func (s SyscallStatus) String() string {
	switch s {
	case StatusNotObserved:
		return "not-observed"
	case StatusObserved:
		return "observed"
	case StatusUntriggered:
		return "untriggered"
	case StatusInvalidCandidate:
		return "invalid(±)"
	case StatusFalsePositive:
		return "false-positive(✗)"
	case StatusUsable:
		return "usable(⊕)"
	default:
		return "status?"
	}
}

// syscallStatusTokens are the stable JSON wire names. The display strings
// above carry table-legend punctuation, so the wire uses separate tokens.
var syscallStatusTokens = map[SyscallStatus]string{
	StatusNotObserved:      "not_observed",
	StatusObserved:         "observed",
	StatusUntriggered:      "untriggered",
	StatusInvalidCandidate: "invalid_candidate",
	StatusFalsePositive:    "false_positive",
	StatusUsable:           "usable",
}

// Token returns the status's stable wire name (the JSON token), used for
// provenance verdicts.
func (s SyscallStatus) Token() string {
	if tok, ok := syscallStatusTokens[s]; ok {
		return tok
	}
	return fmt.Sprintf("status_%d", uint8(s))
}

// MarshalJSON encodes the status as a stable string token.
func (s SyscallStatus) MarshalJSON() ([]byte, error) {
	tok, ok := syscallStatusTokens[s]
	if !ok {
		return nil, fmt.Errorf("marshal: invalid syscall status %d", uint8(s))
	}
	return []byte(`"` + tok + `"`), nil
}

// UnmarshalJSON decodes a status token.
func (s *SyscallStatus) UnmarshalJSON(b []byte) error {
	str := string(b)
	for val, tok := range syscallStatusTokens {
		if str == `"`+tok+`"` {
			*s = val
			return nil
		}
	}
	return fmt.Errorf("unmarshal: unknown syscall status %s", str)
}

// Mark returns the compact Table I cell mark.
func (s SyscallStatus) Mark() string {
	switch s {
	case StatusNotObserved:
		return ""
	case StatusObserved:
		return "·"
	case StatusUntriggered:
		return "?"
	case StatusInvalidCandidate:
		return "±"
	case StatusFalsePositive:
		return "✗"
	case StatusUsable:
		return "⊕"
	default:
		return "?"
	}
}

// Candidate is one corruptible pointer argument observed at a syscall.
type Candidate struct {
	Syscall    string `json:"syscall"`
	Num        uint64 `json:"num"`
	ArgIndex   int    `json:"arg_index"`
	Provenance uint64 `json:"provenance"` // memory address the pointer value was loaded from
	TaintMask  uint64 `json:"taint_mask"` // network-input taint labels on the pointer value
	Count      int    `json:"count"`      // times observed
}

// Finding is a validated candidate.
type Finding struct {
	Candidate
	Status SyscallStatus `json:"status"`
	Detail string        `json:"detail,omitempty"`
}

// SyscallReport is the per-server Table I result.
type SyscallReport struct {
	// Schema versions the report's wire format (WireSchemaV1).
	Schema string `json:"schema"`
	Server string `json:"server"`
	// Status holds the final per-syscall classification for every
	// EFAULT-capable syscall.
	Status map[string]SyscallStatus `json:"status"`
	// Findings holds every validated candidate with detail.
	Findings []Finding `json:"findings,omitempty"`
	// ObservedOnly lists EFAULT-capable syscalls that ran without any
	// corruptible pointer.
	ObservedOnly []string `json:"observed_only,omitempty"`
	// Provenance holds one evidence chain per finding (taint nomination →
	// validation verdict), keyed "<syscall>/arg<k>". Exported via JSON only;
	// table formatters never read it.
	Provenance []PrimitiveProvenance `json:"provenance,omitempty"`
	// Stats is the run's observability record. It never feeds table
	// rendering, so report formatting stays byte-identical.
	Stats *metrics.RunStats `json:"stats,omitempty"`
	// Degraded lists jobs dropped after exhausting their retry budget;
	// empty unless a fault plan or retry budget is configured.
	Degraded []Degraded `json:"degraded,omitempty"`
}

// Usable returns the names of syscalls classified usable.
func (r *SyscallReport) Usable() []string {
	var out []string
	for name, st := range r.Status {
		if st == StatusUsable {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// AnalyzeServers runs the syscall pipeline for every server, fanning the
// servers out across the worker pool. Workers stop claiming servers once
// ctx is done. Reports are returned in input order and each is identical to
// what a standalone AnalyzeServer would produce.
func AnalyzeServers(ctx context.Context, cfg Config, servers []*targets.Server) ([]*SyscallReport, error) {
	reports := make([]*SyscallReport, len(servers))
	err := runIndexed(ctx, cfg.Workers, len(servers), nil, func(i int) error {
		rep, err := AnalyzeServer(ctx, cfg, servers[i])
		if err != nil {
			return err
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}

// AnalyzeServer runs observation plus per-candidate validation for one
// server, checking ctx between stages and before each validation replay.
// Replays are independent (each builds a fresh corrupted environment), so
// they fan out across the worker pool; findings land in candidate order and
// statuses merge sequentially afterwards.
func AnalyzeServer(ctx context.Context, cfg Config, srv *targets.Server) (*SyscallReport, error) {
	r := cfg.begin("syscall", srv.Name)
	var srvImage []byte
	if r.Cache != nil {
		if data, merr := bin.Marshal(srv.Image); merr == nil {
			srvImage = data
		} else {
			r.Cache = nil
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var (
		observed   map[string]bool
		candidates []Candidate
	)
	err := r.runJob(ctx, "observe", srv.Name, 0, func(int) error {
		o, c, err := r.observe(srv)
		if err != nil {
			return err
		}
		observed, candidates = o, c
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("observe %s: %w", srv.Name, err)
	}
	// A degraded observation run behaves like a server that never booted:
	// every EFAULT-capable syscall stays not-observed.
	if observed == nil {
		observed = make(map[string]bool)
		candidates = nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	report := &SyscallReport{
		Schema: WireSchemaV1,
		Server: srv.Name,
		Status: make(map[string]SyscallStatus),
	}
	for _, spec := range kernel.Specs() {
		if spec.CanEFAULT {
			report.Status[spec.Name] = StatusNotObserved
		}
	}
	for name := range observed {
		if _, ok := report.Status[name]; ok {
			report.Status[name] = StatusObserved
		}
	}

	findings := make([]Finding, len(candidates))
	err = fanOut(ctx, r, "validate", len(candidates), func(i int) string {
		return candidates[i].Syscall + "/" + strconv.Itoa(candidates[i].ArgIndex)
	}, nil, func(_ struct{}, i int, unit string, _ int) (charge, error) {
		cand := candidates[i]
		ent, err := cachedUnit(r, casFamilyValidate, "validate", unit,
			func() (cas.Key, bool) { return validateKey(srvImage, srv.Name, r.Seed, cand), true },
			func() (validateEntry, bool, error) {
				finding, cost, err := r.validate(srv, cand)
				return validateEntry{Finding: finding, Cost: cost}, true, err
			})
		if err != nil {
			return charge{}, fmt.Errorf("validate %s/%s: %w", srv.Name, cand.Syscall, err)
		}
		findings[i] = ent.Finding
		// The replay's virtual clock is the job's deterministic cost. Its
		// corrupted invocations that returned -EFAULT are the primitive's
		// probes, and the kernel's bucket series both the row profile and
		// part of the run-level stream.
		cost := ent.Cost
		buckets := cost.Kernel.EFAULTBuckets
		return charge{
			sample: cost.Clock, clock: cost.Clock, vm: cost.Stats, kern: cost.Kernel,
			sight: sighting{
				primitive: fmt.Sprintf("%s/arg%d", cand.Syscall, cand.ArgIndex),
				probes:    max(cost.Kernel.EFAULTReturns, 1),
				faults:    cost.Kernel.EFAULTReturns,
				ticks:     cost.Clock,
				series:    buckets,
				stream:    buckets,
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, finding := range findings {
		if finding.Status == 0 {
			continue // degraded slot: candidate dropped from the report
		}
		report.Findings = append(report.Findings, finding)
		if finding.Status > report.Status[finding.Syscall] {
			report.Status[finding.Syscall] = finding.Status
		}
	}

	for name, st := range report.Status {
		if st == StatusObserved {
			report.ObservedOnly = append(report.ObservedOnly, name)
		}
	}
	sort.Strings(report.ObservedOnly)
	sort.Slice(report.Findings, func(i, j int) bool {
		if report.Findings[i].Syscall != report.Findings[j].Syscall {
			return report.Findings[i].Syscall < report.Findings[j].Syscall
		}
		return report.Findings[i].ArgIndex < report.Findings[j].ArgIndex
	})
	for _, f := range report.Findings {
		report.Provenance = append(report.Provenance, PrimitiveProvenance{
			Primitive: fmt.Sprintf("%s/arg%d", f.Syscall, f.ArgIndex),
			Chain: []EvidenceStep{
				step("taint", "corruptible_pointer",
					"pointer arg %d of %s loaded from writable address %#x with taint mask %#x, observed %d time(s)",
					f.ArgIndex, f.Syscall, f.Provenance, f.TaintMask, f.Count),
				step("validate", f.Status.Token(),
					"pointer storage corrupted to %#x and suite replayed: %s", InvalidProbeAddr, f.Detail),
			},
		})
	}
	report.Degraded, report.Stats, err = r.finish()
	if err != nil {
		return nil, err
	}
	return report, nil
}

// observe runs the suite once under taint tracking, collecting observed
// EFAULT-capable syscalls and corruptible-pointer candidates. The run is
// the "taint" span; candidate distillation afterwards is "candidate".
func (r *pipelineRun) observe(srv *targets.Server) (map[string]bool, []Candidate, error) {
	env, err := srv.NewEnvNoStart(r.Seed)
	if err != nil {
		return nil, nil, err
	}
	env.Proc.FaultPlan = r.FaultPlan
	env.Kern.SetFaultPlan(r.FaultPlan)

	observed := make(map[string]bool)
	candByKey := make(map[string]*Candidate)

	obs := &observationSink{onEnter: func(ev kernel.Event) {
		spec, ok := kernel.SpecFor(ev.Num)
		if !ok || !spec.CanEFAULT {
			return
		}
		observed[spec.Name] = true
		for _, pa := range spec.PtrArgs() {
			reg := isa.Register(1 + pa.Index)
			prov, ok := env.Taint.RegProvenance(ev.Thread.ID, reg)
			if !ok {
				continue
			}
			perm, mapped := env.Proc.AS.PermAt(prov)
			if !mapped || perm&mem.PermWrite == 0 {
				continue
			}
			key := fmt.Sprintf("%s/%d", spec.Name, pa.Index)
			if c, dup := candByKey[key]; dup {
				c.Count++
				c.TaintMask |= env.Taint.RegTaint(ev.Thread.ID, reg)
				continue
			}
			candByKey[key] = &Candidate{
				Syscall:    spec.Name,
				Num:        spec.Num,
				ArgIndex:   pa.Index,
				Provenance: prov,
				TaintMask:  env.Taint.RegTaint(ev.Thread.ID, reg),
				Count:      1,
			}
		}
	}}
	env.Kern.SetObserver(obs)

	span := r.col.StartStage("taint", 0)
	bootErr := env.Boot()
	var suiteErr error
	if bootErr == nil {
		suiteErr = srv.Suite(env)
	}
	// The uncorrupted suite run is the pipeline's benign baseline: what
	// the defender sees when no one is probing.
	counts := env.Kern.Counts()
	r.charge(charge{
		stage: "taint", unit: "suite", span: span, sample: env.Proc.Clock,
		clock: env.Proc.Clock, vm: env.Proc.Stats, kern: counts,
		sight: sighting{
			phase:  "observe",
			faults: counts.EFAULTReturns,
			ticks:  env.Proc.Clock,
			series: counts.EFAULTBuckets,
			stream: counts.EFAULTBuckets,
		},
	})
	span.End()
	switch {
	case bootErr != nil:
		// A server that cannot even boot yields an empty observation.
		return observed, nil, nil
	case suiteErr != nil:
		return nil, nil, suiteErr
	}

	span = r.col.StartStage("candidate", len(candByKey))
	keys := make([]string, 0, len(candByKey))
	for k := range candByKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Candidate, 0, len(keys))
	for _, k := range keys {
		out = append(out, *candByKey[k])
		span.JobDone()
	}
	span.End()
	return observed, out, nil
}

// validate replays the suite with the candidate's pointer storage corrupted
// and classifies the outcome. The returned cost carries the replay's
// deterministic counters; the caller observes them, so a cache hit can
// replay the identical observations.
func (r *pipelineRun) validate(srv *targets.Server, cand Candidate) (Finding, validateCost, error) {
	env, err := srv.NewEnvNoStart(r.Seed)
	if err != nil {
		return Finding{}, validateCost{}, err
	}
	env.Proc.FaultPlan = r.FaultPlan
	env.Kern.SetFaultPlan(r.FaultPlan)
	cost := func() validateCost {
		return validateCost{Clock: env.Proc.Clock, Stats: env.Proc.Stats, Kernel: env.Kern.Counts()}
	}

	// Corrupt the stored pointer now (covers load-time relocations) and
	// after every subsequent program store to it (covers runtime
	// initialization), exactly what an attacker's write primitive does.
	// The corruptor replaces the server's taint engine: a replay carries
	// no taint.
	cor := &corruptingFlow{as: env.Proc.AS, target: cand.Provenance, value: InvalidProbeAddr}
	env.Proc.Flow = cor
	cor.corrupt()

	// Track whether the corrupted pointer actually reached the syscall's
	// EFAULT path. Once it has, the probe is complete and the attacker
	// stops writing — the corruptor disarms, so storage slots recycled
	// for later connections behave normally again.
	efaultSeen := false
	env.Kern.SetObserver(&observationSink{onExit: func(ev kernel.Event, ret uint64) {
		if ev.Num == cand.Num && int64(ret) == -int64(kernel.EFAULT) {
			efaultSeen = true
			cor.disarm()
		}
	}})

	finding := Finding{Candidate: cand}
	if err := env.Boot(); err != nil {
		finding.Status = StatusInvalidCandidate
		finding.Detail = fmt.Sprintf("server crashed during startup: %v", env.Proc.Crash)
		return finding, cost(), nil
	}
	_ = srv.Suite(env)

	switch {
	case env.Proc.State == vm.ProcCrashed:
		finding.Status = StatusInvalidCandidate
		finding.Detail = fmt.Sprintf("crash: %v", env.Proc.Crash)
	case !efaultSeen:
		finding.Status = StatusUntriggered
		finding.Detail = "corrupted pointer never reached the syscall"
	case srv.ServiceCheck != nil && !srv.ServiceCheck(env):
		finding.Status = StatusFalsePositive
		finding.Detail = "server alive but no longer serves connections"
	default:
		finding.Status = StatusUsable
		finding.Detail = "EFAULT returned, server alive and serving"
	}
	return finding, cost(), nil
}

// observationSink adapts closures to kernel.Observer.
type observationSink struct {
	onEnter func(kernel.Event)
	onExit  func(kernel.Event, uint64)
}

func (o *observationSink) SyscallEnter(ev kernel.Event) {
	if o.onEnter != nil {
		o.onEnter(ev)
	}
}

func (o *observationSink) SyscallExit(ev kernel.Event, ret uint64) {
	if o.onExit != nil {
		o.onExit(ev, ret)
	}
}

// corruptingFlow is the analysis-side emulation of the attacker's
// arbitrary-write primitive: the data flow of a corrupted replay. It
// rewrites the 8 bytes at target with an invalid pointer value after every
// program store (StoreMem) and every socket input copy (MarkMem) that
// touches them. A call's return-address push, an API stub's struct write
// (both ClearMem) and every other kernel write leave them as written.
// Every other event is a no-op: a replay carries no taint.
type corruptingFlow struct {
	as       *mem.AddressSpace
	target   uint64
	value    uint64
	disarmed bool
}

var _ vm.DataFlow = (*corruptingFlow)(nil)

// disarm stops further corruption (the attacker's probe has completed).
func (c *corruptingFlow) disarm() { c.disarmed = true }

func (c *corruptingFlow) corrupt() {
	if c.disarmed || !c.as.Mapped(c.target) {
		return
	}
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(c.value >> (8 * i))
	}
	// A slot straddling into an unmapped page is left as it is: the
	// replay then runs with the pointer intact, as an attacker whose
	// write faulted would.
	_ = c.as.WriteForce(c.target, buf[:])
}

// touches reports whether [addr, addr+size) overlaps the slot.
func (c *corruptingFlow) touches(addr uint64, size int) bool {
	return addr < c.target+8 && c.target < addr+uint64(size)
}

// StoreMem implements vm.DataFlow: a program store to the slot re-corrupts
// it.
func (c *corruptingFlow) StoreMem(_ int, _ isa.Register, addr uint64, size int) {
	if c.touches(addr, size) {
		c.corrupt()
	}
}

// MarkMem implements vm.DataFlow: socket input copied over the slot
// re-corrupts it.
func (c *corruptingFlow) MarkMem(_ uint8, addr uint64, size int) {
	if c.touches(addr, size) {
		c.corrupt()
	}
}

// CopyRegReg implements vm.DataFlow as a no-op.
func (*corruptingFlow) CopyRegReg(int, isa.Register, isa.Register) {}

// SetRegImm implements vm.DataFlow as a no-op.
func (*corruptingFlow) SetRegImm(int, isa.Register) {}

// CombineReg implements vm.DataFlow as a no-op.
func (*corruptingFlow) CombineReg(int, isa.Register, isa.Register) {}

// LoadMem implements vm.DataFlow as a no-op.
func (*corruptingFlow) LoadMem(int, isa.Register, uint64, int) {}

// ClearMem implements vm.DataFlow as a no-op: a constant store over the
// slot does not re-corrupt it.
func (*corruptingFlow) ClearMem(uint64, int) {}

// RegTaint implements vm.DataFlow: a replay tracks no taint.
func (*corruptingFlow) RegTaint(int, isa.Register) uint64 { return 0 }

// MemTaint implements vm.DataFlow: a replay tracks no taint.
func (*corruptingFlow) MemTaint(uint64, int) uint64 { return 0 }
