// Package crashresist is the public API of the crash-resistant-primitive
// discovery toolkit, a reproduction of "Towards Automated Discovery of
// Crash-Resistant Primitives in Binary Executables" (Kollenda et al.,
// DSN 2017).
//
// The toolkit runs entirely on a simulated substrate: M64 binaries execute
// inside a deterministic process emulator with a Linux-model syscall layer
// and a Windows-model API/SEH layer. Three discovery pipelines locate
// crash-resistant primitives in those binaries, selected by
// Request.Pipeline:
//
//   - PipelineSyscall: the Linux syscall pipeline (taint tracking + pointer
//     corruption validation) — Table I.
//   - PipelineAPI: the Windows API pipeline (black-box fuzzing + call-site
//     harvesting + controllability classification) — the §V-B funnel.
//   - PipelineSEH: the exception-handler pipeline (scope-table extraction +
//     symbolic filter execution + coverage cross-reference) — Tables II
//     and III.
//
// A Request describes one analysis — target, seed, workers, fault plan,
// cache, observers — and Run executes it.
//
// Discovered primitives become memory oracles (package-level *Oracle types)
// that probe the address space without crashing, defeating
// information-hiding defenses; the defense side (RateDetector,
// MappedOnlyPolicy, Rerandomizer) reproduces §VII's countermeasures.
//
// Typical usage:
//
//	res, _ := crashresist.Run(context.Background(), crashresist.Request{Target: "nginx", Seed: 42})
//	fmt.Println(res.Syscall.Usable()) // [recv]
package crashresist

import (
	"errors"
	"fmt"
	"io"

	"crashresist/internal/cas"
	"crashresist/internal/defense"
	"crashresist/internal/discover"
	"crashresist/internal/faultinject"
	"crashresist/internal/metrics"
	"crashresist/internal/oracle"
	"crashresist/internal/prof"
	"crashresist/internal/targets"
	"crashresist/internal/trace"
	"crashresist/internal/vm"
	"crashresist/internal/winapi"
)

// Typed sentinel errors, matchable with errors.Is.
var (
	// ErrUnknownServer is returned (wrapped) by Server for names outside
	// the Table I set.
	ErrUnknownServer = targets.ErrUnknownServer
	// ErrUnknownTable is returned (wrapped) for artifact selectors outside
	// 1, funnel, 2, 3, prior, rate, all.
	ErrUnknownTable = errors.New("unknown table")
	// ErrBadParams is returned (wrapped) for invalid analysis parameters,
	// e.g. an unrecognized corpus scale.
	ErrBadParams = errors.New("bad parameters")
	// ErrDegraded marks a pipeline result that is partial because one or
	// more jobs exhausted their retry budget (see Request.FaultPlan and
	// Request.Retries).
	ErrDegraded = discover.ErrDegraded
	// ErrInjectedFault is the root sentinel of every error produced by a
	// fault plan; errors.Is matches it through any wrapping.
	ErrInjectedFault = faultinject.ErrInjected
)

// Target construction.
type (
	// ServerTarget is one of the five Table I server models.
	ServerTarget = targets.Server
	// ServerEnv is a booted server instance.
	ServerEnv = targets.ServerEnv
	// BrowserTarget is one of the two browser models.
	BrowserTarget = targets.Browser
	// BrowserEnv is a booted browser instance.
	BrowserEnv = targets.BrowserEnv
	// BrowserParams sizes a browser model and its DLL/API corpora.
	BrowserParams = targets.BrowserParams
	// CorpusParams sizes the system-DLL corpus.
	CorpusParams = targets.CorpusParams
	// DLLSpec sizes one DLL's exception-handler population.
	DLLSpec = targets.DLLSpec
	// APICorpusParams sizes the platform-API corpus.
	APICorpusParams = winapi.CorpusParams
)

// Discovery pipeline reports.
type (
	// SyscallReport is the per-server Table I result.
	SyscallReport = discover.SyscallReport
	// SyscallStatus classifies one server/syscall cell.
	SyscallStatus = discover.SyscallStatus
	// Finding is one validated syscall candidate.
	Finding = discover.Finding
	// APIFunnelReport is the §V-B funnel result.
	APIFunnelReport = discover.APIFunnelReport
	// APIClassification explains one JS-context API's fate.
	APIClassification = discover.APIClassification
	// SEHReport is the Tables II/III result.
	SEHReport = discover.SEHReport
	// ModuleSEH is one module row of Tables II/III.
	ModuleSEH = discover.ModuleSEH
	// PriorWorkFindings is the §VII-A verification result.
	PriorWorkFindings = discover.PriorWorkFindings
)

// Fault injection & graceful degradation (see DESIGN.md §8).
type (
	// FaultPlan is a deterministic, seed-driven fault injection plan.
	// Attach one as Request.FaultPlan to run an analysis in chaos mode.
	FaultPlan = faultinject.Plan
	// FaultSite names an injection point (vm.load, kernel.syscall, ...).
	FaultSite = faultinject.Site
	// FaultSiteConfig tunes one site's rate, mode and try budget.
	FaultSiteConfig = faultinject.SiteConfig
	// Degraded records one job dropped from a report after exhausting its
	// retry budget; reports carry these in their Degraded field.
	Degraded = discover.Degraded
)

// NewFaultPlan returns an empty plan seeded with seed; enable sites with
// its Enable method.
func NewFaultPlan(seed int64) *FaultPlan { return faultinject.New(seed) }

// DefaultFaultPlan returns a plan with every injection site enabled at
// rates tuned for paper-scale chaos runs.
func DefaultFaultPlan(seed int64) *FaultPlan { return faultinject.Default(seed) }

// Observability layer (see DESIGN.md §7).
type (
	// RunStats is the per-run observability record attached to every
	// report's Stats field: counter totals, stage spans, wall clock.
	RunStats = metrics.RunStats
	// StageStats is one completed stage span inside a RunStats.
	StageStats = metrics.StageStats
	// StageEvent is one live progress notification (see Request.Progress).
	StageEvent = metrics.StageEvent
	// MetricSink receives live stage events and final run snapshots.
	MetricSink = metrics.Sink
	// MemorySink retains events and snapshots in memory.
	MemorySink = metrics.MemorySink
	// MetricCounter identifies one run counter (CtrInstructions, ...).
	MetricCounter = metrics.Counter
	// TraceSpan is one node of a run's span tree (run → pipeline → stage →
	// shard → job), carried in RunStats.Spans.
	TraceSpan = metrics.Span
	// LatencySnapshot is a stage's frozen per-job virtual-cost histogram
	// with p50/p95/p99/max, carried in StageStats.Latency.
	LatencySnapshot = metrics.HistSnapshot
	// MetricsRegistry accumulates completed runs for live exposition:
	// Prometheus text on /metrics, recent-run Chrome traces on /trace.json.
	MetricsRegistry = metrics.Registry
	// PrimitiveProvenance is one report row's evidence chain.
	PrimitiveProvenance = discover.PrimitiveProvenance
	// EvidenceStep is one link of a provenance chain.
	EvidenceStep = discover.EvidenceStep
)

// Cost profiling (see DESIGN.md §13): an exact, deterministic profiler
// attributing the pipelines' virtual costs (symex steps, VM instructions,
// clock ticks, cache bytes, retries, backoff ticks) to semantic stacks
// pipeline → stage → target → unit. For a fixed request the profile is
// byte-identical at any worker count and with any cache state.
type (
	// Profile accumulates exact virtual-cost samples across one or more
	// runs. Attach one as Request.Profile; read it with Snapshot.
	Profile = prof.Profile
	// ProfileSnapshot is a profile's immutable, deterministically ordered
	// export, rendering as folded stacks (flamegraph.pl), a ranked top-N
	// report, or JSON.
	ProfileSnapshot = prof.Snapshot
	// ProfileStack is one sample's semantic attribution path.
	ProfileStack = prof.Stack
	// ProfileKind is one of the virtual cost dimensions (ProfSymexSteps,
	// ProfVMInstructions, ...).
	ProfileKind = prof.Kind
)

// Profile cost kinds.
const (
	ProfSymexSteps     = prof.KindSymexSteps
	ProfVMInstructions = prof.KindVMInstructions
	ProfClockTicks     = prof.KindClockTicks
	ProfRetries        = prof.KindRetries
	ProfBackoffTicks   = prof.KindBackoffTicks
	ProfCacheBytes     = prof.KindCacheBytes
)

// NewProfile returns an empty cost profile.
func NewProfile() *Profile { return prof.New() }

// Run counters, usable with RunStats.Counter.
const (
	CtrInstructions          = metrics.CtrInstructions
	CtrFaults                = metrics.CtrFaults
	CtrFaultsUnmapped        = metrics.CtrFaultsUnmapped
	CtrFaultsHandled         = metrics.CtrFaultsHandled
	CtrSyscalls              = metrics.CtrSyscalls
	CtrEFAULTReturns         = metrics.CtrEFAULTReturns
	CtrAPICalls              = metrics.CtrAPICalls
	CtrProbes                = metrics.CtrProbes
	CtrProbesMapped          = metrics.CtrProbesMapped
	CtrSymexCacheHits        = metrics.CtrSymexCacheHits
	CtrSymexCacheMisses      = metrics.CtrSymexCacheMisses
	CtrSymexCacheUncacheable = metrics.CtrSymexCacheUncacheable
	CtrPoolTasks             = metrics.CtrPoolTasks
	CtrFaultsInjected        = metrics.CtrFaultsInjected
	CtrRetries               = metrics.CtrRetries
	CtrBackoffTicks          = metrics.CtrBackoffTicks
	CtrDegraded              = metrics.CtrDegraded
	CtrCacheHits             = metrics.CtrCacheHits
	CtrCacheMisses           = metrics.CtrCacheMisses
	CtrCacheBadEntries       = metrics.CtrCacheBadEntries
	CtrCacheBytes            = metrics.CtrCacheBytes
	CtrDetections            = metrics.CtrDetections
)

// Stage event kinds.
const (
	StageBegin     = metrics.StageBegin
	StageProgress  = metrics.StageProgress
	StageEnd       = metrics.StageEnd
	StageDetection = metrics.StageDetection
)

// NewMemorySink returns an empty in-memory metric sink.
func NewMemorySink() *MemorySink { return metrics.NewMemorySink() }

// NewMetricsRegistry returns an empty live-exposition registry. Attach it
// through Request.Sinks, then serve registry.Handler() (as cmd/crmon
// does).
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// WriteChromeTrace writes the runs' span trees to w as Chrome trace-event
// JSON, loadable in Perfetto or chrome://tracing.
func WriteChromeTrace(w io.Writer, runs ...*RunStats) error {
	return metrics.WriteChromeTrace(w, runs...)
}

// Syscall pipeline statuses (Table I cell legend).
const (
	StatusNotObserved      = discover.StatusNotObserved
	StatusObserved         = discover.StatusObserved
	StatusUntriggered      = discover.StatusUntriggered
	StatusInvalidCandidate = discover.StatusInvalidCandidate
	StatusFalsePositive    = discover.StatusFalsePositive
	StatusUsable           = discover.StatusUsable
)

// Oracles and attacks.
type (
	// Oracle is a crash-resistant memory probing primitive.
	Oracle = oracle.Oracle
	// ProbeResult is the outcome of one probe.
	ProbeResult = oracle.ProbeResult
	// Scanner drives an oracle across address ranges.
	Scanner = oracle.Scanner
	// IEOracle is the §VI-A proof of concept.
	IEOracle = oracle.IEOracle
	// FirefoxOracle is the §VI-B proof of concept.
	FirefoxOracle = oracle.FirefoxOracle
	// NginxOracle is the §VI-C proof of concept.
	NginxOracle = oracle.NginxOracle
	// CherokeeOracle is the §VI-D proof of concept.
	CherokeeOracle = oracle.CherokeeOracle
)

// Probe outcomes.
const (
	ProbeMapped   = oracle.ProbeMapped
	ProbeUnmapped = oracle.ProbeUnmapped
)

// Defenses.
type (
	// RateDetector is the §VII-C fault-rate anomaly detector.
	RateDetector = defense.RateDetector
	// Rerandomizer relocates a hidden region at run time.
	Rerandomizer = defense.Rerandomizer
)

// Defense observatory (DESIGN.md §14): the online detection engine and the
// Table VII-style detectability report. Attach a Detect observer with
// Request.Detect (or set Request.IncludeDetect); the rendered section rides
// RunStats/Result, never the report tables.
type (
	// Detect is the streaming detection observer shared across runs; fold
	// points are commutative, so sections are worker- and cache-invariant.
	Detect = defense.Detect
	// DetectReport is the multi-section detectability report (Snapshot).
	DetectReport = defense.Report
	// DetectSection is one pipeline/target's detection record: calibration
	// panel, benign baseline, per-primitive rows, live stream verdicts.
	DetectSection = defense.Section
	// Detectability is one primitive's Table VII-style row.
	Detectability = defense.Detectability
	// DetectionEvent is one detector trip, also emitted as a typed
	// StageEvent (KindDetection) on the live stream.
	DetectionEvent = defense.DetectionEvent
	// Calibration is one detector configuration in the panel.
	Calibration = defense.Calibration
)

// DetectSchema versions the detectability report JSON.
const DetectSchema = defense.DetectSchema

// NewDetect returns a detection observer evaluating the given calibration
// panel; with no arguments it uses DefaultCalibrations.
func NewDetect(cals ...Calibration) *Detect { return defense.NewDetect(cals...) }

// DefaultCalibrations is the standard panel: the §VII-C default window
// detector plus a wide window and an EWMA variant.
func DefaultCalibrations() []Calibration { return defense.DefaultCalibrations() }

// DefaultCalibration is the §VII-C default alone: 64 faults per virtual
// second over a 1-second sliding window.
func DefaultCalibration() Calibration { return defense.DefaultCalibration() }

// Servers builds the five Table I server targets.
func Servers() ([]*ServerTarget, error) { return targets.AllServers() }

// Server builds one server target by name: nginx, cherokee, lighttpd,
// memcached or postgresql.
func Server(name string) (*ServerTarget, error) { return targets.ServerByName(name) }

// IE builds the Internet Explorer 11 browser model.
func IE(params BrowserParams) (*BrowserTarget, error) { return targets.IE(params) }

// Firefox builds the Firefox 46 browser model.
func Firefox(params BrowserParams) (*BrowserTarget, error) { return targets.Firefox(params) }

// PaperBrowserParams returns the full evaluation scale (187 DLLs, 20,672
// APIs, 736,512 trigger events).
func PaperBrowserParams() BrowserParams { return targets.PaperBrowserParams() }

// SmallBrowserParams returns a quick test scale.
func SmallBrowserParams() BrowserParams { return targets.SmallBrowserParams() }

// Generated target universe (DESIGN.md §12): seeded deterministic
// populations behind the -scale knob. Generated corpora have no golden
// files — their results are property-checked against the generators'
// declared specs (worker invariance, cache equivalence, conservation,
// provenance completeness).

// DefaultGenSeed seeds the generated populations used by the large and
// mega scales and the "gen"/"gen-<i>" targets.
const DefaultGenSeed = targets.DefaultGenSeed

type (
	// GenDLLSpec is a generated DLL's declared Tables II/III row.
	GenDLLSpec = targets.GenDLLSpec
	// GenServerProfile is a generated server's declared Table I
	// dispositions.
	GenServerProfile = targets.GenServerProfile
)

// LargeBrowserParams returns the paper corpus extended with a 10×
// generated DLL population (2,057 modules).
func LargeBrowserParams() BrowserParams { return targets.LargeBrowserParams() }

// MegaBrowserParams returns the paper corpus extended with a 100×
// generated DLL population (18,887 modules).
func MegaBrowserParams() BrowserParams { return targets.MegaBrowserParams() }

// BrowserParamsForScale maps a Request.Scale value ("", small, paper,
// large, mega) to browser corpus params; unknown scales match ErrBadParams.
func BrowserParamsForScale(scale string) (BrowserParams, error) {
	switch scale {
	case "", ScaleSmall:
		return SmallBrowserParams(), nil
	case ScalePaper:
		return PaperBrowserParams(), nil
	case ScaleLarge:
		return LargeBrowserParams(), nil
	case ScaleMega:
		return MegaBrowserParams(), nil
	}
	return BrowserParams{}, fmt.Errorf("%w: unknown scale %q (want small, paper, large or mega)", ErrBadParams, scale)
}

// GenServerCount returns the generated server fleet size for a scale
// (the size of the "gen" target); unknown scales match ErrBadParams.
func GenServerCount(scale string) (int, error) {
	switch scale {
	case "", ScaleSmall:
		return targets.GenServersSmall, nil
	case ScalePaper:
		return targets.GenServersPaper, nil
	case ScaleLarge:
		return targets.GenServersLarge, nil
	case ScaleMega:
		return targets.GenServersMega, nil
	}
	return 0, fmt.Errorf("%w: unknown scale %q (want small, paper, large or mega)", ErrBadParams, scale)
}

// GenServer builds one generated server (index i of the seed's universe).
func GenServer(seed int64, index int) (*ServerTarget, error) { return targets.GenServer(seed, index) }

// GenServers builds generated servers 0..n-1 in index order.
func GenServers(seed int64, n int) ([]*ServerTarget, error) { return targets.GenServers(seed, n) }

// GenServerProfiles returns the declared Table I dispositions of
// generated servers 0..n-1 without building the images.
func GenServerProfiles(seed int64, n int) []GenServerProfile {
	return targets.GenServerProfiles(seed, n)
}

// AnalysisCache is a persistent, content-addressed store for analysis
// results (see internal/cas): per-DLL symex verdicts, fuzzing batteries,
// controllability classifications, and syscall validation outcomes. Warm
// runs replay cached results byte-identically; any miss, corruption, or
// I/O error silently degrades to recompute. A nil *AnalysisCache is a
// valid always-miss cache.
type AnalysisCache = cas.Cache

// CacheStats are an AnalysisCache's lifetime hit/miss/corruption counters.
type CacheStats = cas.Stats

// OpenAnalysisCache roots a persistent analysis cache at dir, creating the
// directory if needed. The error reports an unusable (e.g. unwritable)
// directory; callers may warn and proceed without a cache — analyses run
// identically, just cold.
func OpenAnalysisCache(dir string) (*AnalysisCache, error) { return cas.Open(dir) }

// PriorWork checks an SEH report for the §VII-A previously-published
// primitives.
func PriorWork(rep *SEHReport) PriorWorkFindings { return discover.PriorWork(rep) }

// NewScanner wraps an oracle with probing statistics.
func NewScanner(o Oracle) *Scanner { return oracle.NewScanner(o) }

// PlantHiddenRegion maps a reference-less region (the SafeStack/CPI-metadata
// stand-in) into a process and returns its secret base.
func PlantHiddenRegion(p *vm.Process, size uint64) (uint64, error) {
	return oracle.PlantHiddenRegion(p, size)
}

// NewIEOracle builds the §VI-A oracle on a started IE environment.
func NewIEOracle(env *BrowserEnv) (*IEOracle, error) { return oracle.NewIEOracle(env) }

// NewFirefoxOracle builds the §VI-B oracle on a started Firefox environment.
func NewFirefoxOracle(env *BrowserEnv) (*FirefoxOracle, error) { return oracle.NewFirefoxOracle(env) }

// NewNginxOracle builds the §VI-C oracle on a running nginx environment.
func NewNginxOracle(env *ServerEnv) *NginxOracle { return oracle.NewNginxOracle(env) }

// NewCherokeeOracle builds the §VI-D timing oracle; requests is the batch
// size per measurement (1,000 in the paper).
func NewCherokeeOracle(env *ServerEnv, requests int) (*CherokeeOracle, error) {
	return oracle.NewCherokeeOracle(env, requests)
}

// DefaultRateDetector returns the §VII-C calibration.
func DefaultRateDetector() RateDetector { return defense.DefaultRateDetector() }

// ProbesToCover returns how many stride-sized probes cover an address range.
func ProbesToCover(rangeBytes, stride uint64) uint64 {
	return defense.ProbesToCover(rangeBytes, stride)
}

// MappedOnlyPolicy returns the VM policy making unmapped access violations
// unrecoverable (§VII-C).
func MappedOnlyPolicy() vm.Policy { return defense.MappedOnlyPolicy() }

// NewRerandomizer plants a relocatable hidden region.
func NewRerandomizer(p *vm.Process, size uint64) (*Rerandomizer, error) {
	return defense.NewRerandomizer(p, size)
}

// NewExceptionRecorder returns a tracer recording exception events for the
// rate-detection experiments; attach it to a process before running a
// workload.
func NewExceptionRecorder() *trace.Recorder {
	rec := trace.NewRecorder()
	rec.EnableExceptionLog()
	return rec
}
