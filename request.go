package crashresist

// The analysis entry point: one Request struct and one Run call configure
// and execute every pipeline. Request doubles as the wire shape of the
// discovery service's job submissions (the serializable subset) —
// internal/service decodes a Request straight off POST /v1/jobs — so
// library callers and API tenants share one surface.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"crashresist/internal/cas"
	"crashresist/internal/discover"
	"crashresist/internal/targets"
)

// SchemaV1 is the wire-format version stamped on every JSON document the
// toolkit emits: pipeline reports, Result envelopes, the crtables/crprobe
// artifact bundles, and the job API payloads. See DESIGN.md §11.
const SchemaV1 = discover.WireSchemaV1

// Pipeline selectors for Request.Pipeline.
const (
	// PipelineSyscall is the Linux syscall pipeline (Table I).
	PipelineSyscall = "syscall"
	// PipelineAPI is the Windows API pipeline (the §V-B funnel).
	PipelineAPI = "api"
	// PipelineSEH is the exception-handler pipeline (Tables II/III).
	PipelineSEH = "seh"
)

// Scale selectors for Request.Scale. Small and paper are the hand-built,
// golden-pinned corpora; large and mega extend them with generated
// populations (≥10× and ≥100× the paper corpus) whose results are
// property-checked rather than golden-filed.
const (
	ScaleSmall = "small"
	ScalePaper = "paper"
	ScaleLarge = "large"
	ScaleMega  = "mega"
)

// Request describes one analysis run for Run. The zero value is not
// runnable — at minimum a target must be named or attached.
//
// The exported, json-tagged fields form the v1 wire schema used by the
// discovery service's job API; the `json:"-"` fields are in-process
// attachments (pre-built targets, live callbacks, an open cache) that
// never cross the wire. When both a wire field and its attachment are set,
// the attachment wins.
type Request struct {
	// Pipeline selects syscall, api or seh. Empty infers it from the
	// target: servers run syscall, browsers run seh.
	Pipeline string `json:"pipeline,omitempty"`
	// Target names the analysis subject: one of the Table I servers
	// (nginx, cherokee, lighttpd, memcached, postgresql), a browser (ie,
	// firefox), "all" for every Table I server in parallel, a generated
	// server ("gen-<i>"), or "gen" for the whole generated fleet at the
	// request's Scale (syscall pipeline only). Ignored when Server,
	// Servers or Browser is attached.
	Target string `json:"target,omitempty"`
	// Scale sizes the analysis corpus: "small" (the default), "paper",
	// "large" or "mega". For browsers it selects the DLL corpus
	// (large/mega append generated populations); for the generated server
	// targets ("gen", "gen-<i>") it sizes the fleet. The hand-built
	// Table I servers ignore it.
	Scale string `json:"scale,omitempty"`
	// Seed fixes ASLR and every derived RNG; reports are byte-identical
	// per seed at any worker count.
	Seed int64 `json:"seed"`
	// Workers bounds the analysis worker pool (0 = GOMAXPROCS). The worker
	// count affects wall-clock time only, never report contents.
	Workers int `json:"workers,omitempty"`
	// Retries bounds per-job re-runs after transient failures. A retry
	// budget — or any fault plan — switches job failures from aborting the
	// analysis to degrading it: dropped jobs land in the report's Degraded
	// field. Backoff between attempts is virtual (counted in
	// CtrBackoffTicks, never slept). Under a fault plan, zero means 2.
	Retries int `json:"retries,omitempty"`
	// StageTimeout bounds each fanned-out pipeline stage; a stage that
	// exceeds it is cancelled and Run returns a context error. Zero means
	// no limit. Serialized in nanoseconds.
	StageTimeout time.Duration `json:"stage_timeout_ns,omitempty"`
	// ChaosSeed, when non-zero, runs the analysis under the default fault
	// plan seeded with it (chaos mode). Ignored when FaultPlan is attached.
	ChaosSeed int64 `json:"chaos_seed,omitempty"`
	// CacheDir roots a persistent analysis cache (OpenAnalysisCache),
	// degrading silently to an uncached run when the directory is
	// unusable; callers that want to warn open it themselves and attach
	// Cache. Ignored when Cache is attached.
	CacheDir string `json:"cache_dir,omitempty"`
	// IncludeProfile asks Run to cost-profile the analysis and embed the
	// resulting ProfileSnapshot in the Result (and thus in the service's
	// stored job result). Profiling never changes report bytes.
	IncludeProfile bool `json:"profile,omitempty"`
	// IncludeDetect asks Run to watch the analysis with the detection
	// engine and embed the resulting DetectReport in the Result (and thus
	// in the service's stored job result). Detection trips also stream as
	// typed StageEvents. Detection never changes report bytes.
	IncludeDetect bool `json:"detect,omitempty"`

	// Server attaches a pre-built server target (syscall pipeline).
	Server *ServerTarget `json:"-"`
	// Servers attaches several pre-built server targets, analyzed in
	// parallel with results in input order (syscall pipeline).
	Servers []*ServerTarget `json:"-"`
	// Browser attaches a pre-built browser target (api or seh pipeline).
	Browser *BrowserTarget `json:"-"`
	// FaultPlan attaches a deterministic fault injection plan (chaos
	// mode). Injected failures ride the normal error paths and degrade the
	// run; for a fixed plan seed the degraded set is identical at every
	// worker count.
	FaultPlan *FaultPlan `json:"-"`
	// Cache attaches an open persistent analysis cache. Entries are keyed
	// by content hashes of their inputs (target bytes, seed, corruption
	// address), so a changed input re-analyzes exactly the changed units.
	// Caching never changes report bytes, only the cache_* counters in
	// Stats. Runs with a fault plan bypass the cache entirely.
	Cache *AnalysisCache `json:"-"`
	// Profile attaches a live cost profile. When set, the run charges into
	// it (one profile may span several runs); combined with IncludeProfile
	// the Result also embeds its snapshot. When only IncludeProfile is
	// set, Run profiles into a fresh private profile.
	Profile *Profile `json:"-"`
	// Detect attaches a shared detection observer. Each run watches on its
	// calibration panel and folds only its own section into it, when the
	// run finishes (sections accumulate per pipeline/target across runs);
	// combined with IncludeDetect the Result also embeds its snapshot.
	// When only IncludeDetect is set, Run watches with a fresh observer on
	// the default calibration panel.
	Detect *Detect `json:"-"`
	// Progress receives live StageEvents. Run serializes the calls, even
	// across the parallel per-server runs of a multi-server request, so
	// the callback needs no locking of its own.
	Progress func(StageEvent) `json:"-"`
	// Sinks receive live events and each run's final RunStats. Sinks are
	// shared by the parallel runs of a multi-server request and must be
	// safe for concurrent use.
	Sinks []MetricSink `json:"-"`
}

// Result is Run's envelope: exactly one report field matching the resolved
// pipeline is populated (Servers for the multi-server syscall mode). Its
// JSON form — schema-stamped, snake_case — is what the discovery service
// stores and serves as a completed job's result.
type Result struct {
	// Schema is the wire-format version (SchemaV1).
	Schema string `json:"schema"`
	// Pipeline is the resolved pipeline: syscall, api or seh.
	Pipeline string `json:"pipeline"`
	// Target is the resolved target name ("all" for the multi-server run).
	Target string `json:"target"`
	// Syscall is the single-server Table I report.
	Syscall *SyscallReport `json:"syscall,omitempty"`
	// Servers holds the multi-server Table I reports in input order.
	Servers []*SyscallReport `json:"servers,omitempty"`
	// Funnel is the §V-B API funnel report.
	Funnel *APIFunnelReport `json:"funnel,omitempty"`
	// SEH is the Tables II/III report.
	SEH *SEHReport `json:"seh,omitempty"`
	// Profile is the run's cost-profile snapshot, present only when the
	// request set IncludeProfile. Like Stats it lives outside the report
	// fields, so report bytes are identical with profiling on or off.
	Profile *ProfileSnapshot `json:"profile,omitempty"`
	// Detect is the run's detectability report, present only when the
	// request set IncludeDetect. Like Stats it lives outside the report
	// fields, so report bytes are identical with detection on or off.
	Detect *DetectReport `json:"detect,omitempty"`
}

// Report returns the populated report: *SyscallReport, []*SyscallReport,
// *APIFunnelReport or *SEHReport.
func (r *Result) Report() any {
	switch {
	case r == nil:
		return nil
	case r.Syscall != nil:
		return r.Syscall
	case r.Servers != nil:
		return r.Servers
	case r.Funnel != nil:
		return r.Funnel
	case r.SEH != nil:
		return r.SEH
	}
	return nil
}

// RunStats returns the observability records of every run in the result
// (one per analyzed target).
func (r *Result) RunStats() []*RunStats {
	if r == nil {
		return nil
	}
	var out []*RunStats
	switch {
	case r.Syscall != nil:
		out = append(out, r.Syscall.Stats)
	case r.Servers != nil:
		for _, rep := range r.Servers {
			out = append(out, rep.Stats)
		}
	case r.Funnel != nil:
		out = append(out, r.Funnel.Stats)
	case r.SEH != nil:
		out = append(out, r.SEH.Stats)
	}
	return out
}

// DegradedJobs returns every job dropped by graceful degradation across
// the result's reports; empty for clean runs.
func (r *Result) DegradedJobs() []Degraded {
	if r == nil {
		return nil
	}
	var out []Degraded
	switch {
	case r.Syscall != nil:
		out = append(out, r.Syscall.Degraded...)
	case r.Servers != nil:
		for _, rep := range r.Servers {
			out = append(out, rep.Degraded...)
		}
	case r.Funnel != nil:
		out = append(out, r.Funnel.Degraded...)
	case r.SEH != nil:
		out = append(out, r.SEH.Degraded...)
	}
	return out
}

// config resolves the request's settings into the one discover.Config
// every pipeline runs on: a ChaosSeed becomes the default fault plan with
// two retries unless a budget is given, an attached Cache wins over
// CacheDir, and the Progress callback is serialized.
func (req Request) config() discover.Config {
	cfg := discover.Config{
		Seed:         req.Seed,
		Workers:      req.Workers,
		Sinks:        req.Sinks,
		FaultPlan:    req.FaultPlan,
		Retries:      req.Retries,
		StageTimeout: req.StageTimeout,
		Cache:        req.Cache,
		Profile:      req.Profile,
		Detect:       req.Detect,
	}
	if cfg.FaultPlan == nil && req.ChaosSeed != 0 {
		cfg.FaultPlan = DefaultFaultPlan(req.ChaosSeed)
	}
	if cfg.FaultPlan != nil && cfg.Retries == 0 {
		// Chaos without a retry budget would degrade every injected
		// fault into a dropped job; use the CLIs' default budget instead.
		cfg.Retries = 2
	}
	if cfg.Cache == nil && req.CacheDir != "" {
		if c, err := cas.Open(req.CacheDir); err == nil {
			cfg.Cache = c
		}
	}
	if fn := req.Progress; fn != nil {
		// A multi-server request runs several collectors concurrently;
		// serialize the callback across them.
		var mu sync.Mutex
		cfg.Progress = func(ev StageEvent) {
			mu.Lock()
			defer mu.Unlock()
			fn(ev)
		}
	}
	return cfg
}

// Validate checks the request's declarative fields without building any
// target: pipeline and scale selectors must be known, a target must be
// named or attached, and the pipeline must suit the target kind. Run
// calls it first; it is exported so services can reject a bad request
// before queueing it. Errors match ErrBadParams or ErrUnknownServer via
// errors.Is.
func (req Request) Validate() error {
	switch req.Pipeline {
	case "", PipelineSyscall, PipelineAPI, PipelineSEH:
	default:
		return fmt.Errorf("%w: unknown pipeline %q (want syscall, api or seh)", ErrBadParams, req.Pipeline)
	}
	switch req.Scale {
	case "", ScaleSmall, ScalePaper, ScaleLarge, ScaleMega:
	default:
		return fmt.Errorf("%w: unknown scale %q (want small, paper, large or mega)", ErrBadParams, req.Scale)
	}
	browser := false
	switch {
	case req.Servers != nil, req.Server != nil:
	case req.Browser != nil:
		browser = true
	default:
		switch req.Target {
		case "":
			return fmt.Errorf("%w: request names no target", ErrBadParams)
		case "all", "gen":
		case "ie", "firefox":
			browser = true
		default:
			if idx, ok := targets.ParseGenServerRef(req.Target); ok {
				// Scale is already validated, so the count resolves.
				if n, _ := GenServerCount(req.Scale); idx >= n {
					return fmt.Errorf("%w: generated server %q out of range at scale %q (fleet size %d)",
						ErrBadParams, req.Target, req.Scale, n)
				}
			} else if !slices.Contains(targets.ServerNames(), req.Target) {
				return fmt.Errorf("%w: %q", ErrUnknownServer, req.Target)
			}
		}
	}
	if browser && req.Pipeline == PipelineSyscall {
		return fmt.Errorf("%w: the syscall pipeline needs a server target", ErrBadParams)
	}
	if !browser && (req.Pipeline == PipelineAPI || req.Pipeline == PipelineSEH) {
		return fmt.Errorf("%w: pipeline %q needs a browser target", ErrBadParams, req.Pipeline)
	}
	return nil
}

// Run executes one analysis described by req and returns its result
// envelope. It is the single entry point behind every pipeline and the
// execution core of the discovery service's job API. Run checks ctx
// between stages and before each job, returning ctx.Err() once it is done.
//
// Resolution rules: an attached Server/Servers/Browser wins over the
// Target name; an empty Pipeline defaults to syscall for servers and seh
// for browsers; Target "all" fans the syscall pipeline out over every
// Table I server. Run first checks the request with Validate, so a
// mismatch (a server target with the seh pipeline, an unknown name)
// returns the same error matching ErrBadParams or ErrUnknownServer.
//
// Determinism contract: for a fixed request, the result's reports are
// byte-identical (Stats aside) at any Workers value, with any cache state,
// and whether invoked directly or through the service. The embedded
// profile snapshot (IncludeProfile) shares the contract: identical at any
// worker count, and — ranked report and every cache-invariant kind —
// across cache states.
func Run(ctx context.Context, req Request) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if req.IncludeProfile && req.Profile == nil {
		req.Profile = NewProfile()
	}
	if req.IncludeDetect && req.Detect == nil {
		req.Detect = NewDetect()
	}
	res, err := run(ctx, req)
	if err != nil {
		return nil, err
	}
	if req.IncludeProfile {
		res.Profile = req.Profile.Snapshot()
	}
	if req.IncludeDetect {
		res.Detect = req.Detect.Snapshot()
	}
	return res, nil
}

// run executes a validated request, leaving profile embedding to Run.
func run(ctx context.Context, req Request) (*Result, error) {
	cfg := req.config()

	// Attachment-mode requests.
	switch {
	case req.Servers != nil:
		reports, err := discover.AnalyzeServers(ctx, cfg, req.Servers)
		if err != nil {
			return nil, err
		}
		target := "all"
		if len(req.Servers) == 1 {
			target = req.Servers[0].Name
		}
		return &Result{Schema: SchemaV1, Pipeline: PipelineSyscall, Target: target, Servers: reports}, nil
	case req.Server != nil:
		rep, err := discover.AnalyzeServer(ctx, cfg, req.Server)
		if err != nil {
			return nil, err
		}
		return &Result{Schema: SchemaV1, Pipeline: PipelineSyscall, Target: req.Server.Name, Syscall: rep}, nil
	case req.Browser != nil:
		return runBrowser(ctx, cfg, req.Pipeline, req.Browser, req.Browser.Name)
	}

	// Name-mode requests.
	switch req.Target {
	case "all":
		servers, err := Servers()
		if err != nil {
			return nil, err
		}
		reports, err := discover.AnalyzeServers(ctx, cfg, servers)
		if err != nil {
			return nil, err
		}
		return &Result{Schema: SchemaV1, Pipeline: PipelineSyscall, Target: "all", Servers: reports}, nil
	case "gen":
		n, err := GenServerCount(req.Scale)
		if err != nil {
			return nil, err
		}
		servers, err := GenServers(DefaultGenSeed, n)
		if err != nil {
			return nil, err
		}
		reports, err := discover.AnalyzeServers(ctx, cfg, servers)
		if err != nil {
			return nil, err
		}
		return &Result{Schema: SchemaV1, Pipeline: PipelineSyscall, Target: "gen", Servers: reports}, nil
	case "ie", "firefox":
		params, err := BrowserParamsForScale(req.Scale)
		if err != nil {
			return nil, err
		}
		var br *BrowserTarget
		if req.Target == "ie" {
			br, err = IE(params)
		} else {
			br, err = Firefox(params)
		}
		if err != nil {
			return nil, err
		}
		return runBrowser(ctx, cfg, req.Pipeline, br, req.Target)
	default:
		srv, err := Server(req.Target)
		if err != nil {
			return nil, err
		}
		rep, err := discover.AnalyzeServer(ctx, cfg, srv)
		if err != nil {
			return nil, err
		}
		return &Result{Schema: SchemaV1, Pipeline: PipelineSyscall, Target: srv.Name, Syscall: rep}, nil
	}
}

// runBrowser dispatches a browser target to the api or seh (default)
// pipeline.
func runBrowser(ctx context.Context, cfg discover.Config, pl string, br *BrowserTarget, target string) (*Result, error) {
	if pl == PipelineAPI {
		rep, err := discover.AnalyzeAPIs(ctx, cfg, br)
		if err != nil {
			return nil, err
		}
		return &Result{Schema: SchemaV1, Pipeline: PipelineAPI, Target: target, Funnel: rep}, nil
	}
	rep, err := discover.AnalyzeSEH(ctx, cfg, br)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: SchemaV1, Pipeline: PipelineSEH, Target: target, SEH: rep}, nil
}
