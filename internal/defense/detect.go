package defense

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"crashresist/internal/kernel"
	"crashresist/internal/trace"
)

// This file is the online detection engine behind the defender's
// observability plane: pluggable fault-rate detector calibrations evaluated
// over virtual-time fault series (the kernel's EFAULTBuckets and the VM
// tracer's exception log), typed DetectionEvents, and the Table VII-style
// per-primitive detectability report with stealth margins.
//
// Everything is computed over virtual clocks with integer arithmetic only,
// so for a fixed request the detection record is byte-identical at any
// worker count and with the analysis cache off, cold, or warm.

// DetectSchema versions the detectability report JSON.
const DetectSchema = "crashresist/detect/v1"

// scanProbes is the paper's reference scan budget: covering the 8 TiB
// user-space region at the 8 MiB allocation-granularity stride of §VI
// takes this many probes. Stealth-scan durations are quoted against it.
var scanProbes = ProbesToCover(1<<43, 8<<20)

// Calibration is one named detector configuration. Kind selects the
// detector math: "window" is the sliding-window rate detector of §VII-C,
// "ewma" an exponentially-weighted moving average of the per-virtual-second
// fault counts (fixed-point, alpha = 1/2^AlphaShift).
type Calibration struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"`
	WindowTicks uint64 `json:"window_ticks"`
	Threshold   uint64 `json:"threshold"`
	AlphaShift  uint   `json:"alpha_shift,omitempty"`
}

// Calibration kinds.
const (
	KindWindow = "window"
	KindEWMA   = "ewma"
)

// ewmaScale is the fixed-point scale of the EWMA detector (16 fractional
// bits). Integer-only smoothing keeps the detector deterministic.
const ewmaScale = 16

// DefaultCalibration is the §VII-C calibration: one-virtual-second window,
// threshold 64 — comfortably above the asm.js burst peak of ~20, orders of
// magnitude below a scan.
func DefaultCalibration() Calibration {
	d := DefaultRateDetector()
	return Calibration{Name: "vii-c-default", Kind: KindWindow, WindowTicks: d.Window, Threshold: d.Threshold}
}

// DefaultCalibrations returns the engine's standard panel: the §VII-C
// default, a patient 8-second window at the same threshold (catches scans
// throttled below 64/s but above 8/s), and a fixed-point EWMA that needs
// the rate to be *sustained* before it trips.
func DefaultCalibrations() []Calibration {
	return []Calibration{
		DefaultCalibration(),
		{Name: "window-8s", Kind: KindWindow, WindowTicks: 8 * kernel.TicksPerSecond, Threshold: 64},
		{Name: "ewma-alpha8", Kind: KindEWMA, WindowTicks: kernel.TicksPerSecond, Threshold: 64, AlphaShift: 3},
	}
}

// DetectionEvent is one typed detector verdict: the named calibration
// tripped for pipeline/target at Tick (virtual), observing WindowRate
// faults per window at that moment.
type DetectionEvent struct {
	Pipeline   string `json:"pipeline"`
	Target     string `json:"target"`
	Detector   string `json:"detector"`
	Tick       uint64 `json:"tick"`
	WindowRate uint64 `json:"window_rate"`
}

// Trip records one calibration tripping for a primitive's extrapolated
// full-speed scan: the virtual tick of detection and the window rate seen.
type Trip struct {
	Detector   string `json:"detector"`
	Tick       uint64 `json:"tick"`
	WindowRate uint64 `json:"window_rate"`
}

// Detectability is one Table VII-style row: how visible one discovered
// primitive is to the detector panel when an attacker drives it at full
// speed, and the stealth margin for evading the §VII-C default.
type Detectability struct {
	// Primitive names the Table I–III row (syscall, API function, or
	// module!handler).
	Primitive string `json:"primitive"`
	// Probes/Faults/Ticks are the measured totals the extrapolation rests
	// on: probe invocations issued during analysis, the faults they
	// raised, and the virtual ticks they took.
	Probes uint64 `json:"probes"`
	Faults uint64 `json:"faults"`
	Ticks  uint64 `json:"ticks"`
	// FaultRate is the extrapolated full-speed fault rate in faults per
	// virtual second: an attacker repeating the measured probe loop
	// back-to-back sustains this rate.
	FaultRate uint64 `json:"fault_rate"`
	// Profile is the observed fault-count series during analysis, bucketed
	// by virtual second (present when the pipeline records one).
	Profile map[uint64]uint64 `json:"profile,omitempty"`
	// Trips lists the calibrations the full-speed scan would trip, with
	// the virtual tick of first detection.
	Trips []Trip `json:"trips,omitempty"`
	// StealthMargin is the maximum probe rate (probes per virtual second)
	// that stays under the §VII-C default threshold — the attacker's
	// evasion budget. Zero when the primitive raised no faults at all
	// (see Undetectable).
	StealthMargin uint64 `json:"stealth_margin"`
	// StealthScanTicks is the virtual time a full reference scan
	// (8 TiB at 8 MiB stride) takes at StealthMargin — §VII-C's "too
	// high to be practical" figure, per primitive.
	StealthScanTicks uint64 `json:"stealth_scan_ticks,omitempty"`
	// Undetectable marks primitives whose probes raised no faults; the
	// fault-rate detector cannot see them at any rate.
	Undetectable bool `json:"undetectable,omitempty"`
}

// Baseline summarizes the benign phase of a pipeline (server request
// handling for syscall, browsing for the browser pipelines): the detector
// panel evaluated over the benign fault series. Events stays empty when the
// baseline is clean — the false-positive check of §VII-C.
type Baseline struct {
	Phase  string            `json:"phase"`
	Faults uint64            `json:"faults"`
	Ticks  uint64            `json:"ticks"`
	Peak   uint64            `json:"peak"`
	Series map[uint64]uint64 `json:"series,omitempty"`
	Events []DetectionEvent  `json:"events,omitempty"`
}

// Section is one pipeline/target's detection record: the calibration
// panel, the benign baseline, the per-primitive detectability rows, the
// run-level fault series the engine watched, and the detections it raised
// over that live series.
type Section struct {
	Pipeline     string            `json:"pipeline"`
	Target       string            `json:"target"`
	Calibrations []Calibration     `json:"calibrations"`
	Baseline     *Baseline         `json:"baseline,omitempty"`
	Rows         []Detectability   `json:"rows,omitempty"`
	Series       map[uint64]uint64 `json:"series,omitempty"`
	Events       []DetectionEvent  `json:"events,omitempty"`
}

// Report is the detectability report: one section per analyzed
// pipeline/target, sorted, schema-tagged, stable to marshal.
type Report struct {
	Schema   string    `json:"schema"`
	Sections []Section `json:"sections"`
}

// Evaluate runs every calibration over a fault series bucketed by virtual
// second (bucket b covers ticks [b*TicksPerSecond, (b+1)*TicksPerSecond) —
// the same half-open convention as trace.RatePerSecond) and returns at most
// one DetectionEvent per calibration: the first window whose rate crosses
// the threshold. Event order follows calibration order; the scan itself is
// over sorted buckets, so the result is independent of map iteration.
func Evaluate(pipeline, target string, series map[uint64]uint64, cals []Calibration) []DetectionEvent {
	if len(series) == 0 {
		return nil
	}
	buckets := make([]uint64, 0, len(series))
	for b := range series {
		buckets = append(buckets, b)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i] < buckets[j] })
	var events []DetectionEvent
	for _, cal := range cals {
		var ev *DetectionEvent
		switch cal.Kind {
		case KindEWMA:
			ev = evalEWMA(series, buckets, cal)
		default:
			ev = evalWindow(series, buckets, cal)
		}
		if ev != nil {
			ev.Pipeline, ev.Target, ev.Detector = pipeline, target, cal.Name
			events = append(events, *ev)
		}
	}
	return events
}

// evalWindow slides a half-open window of cal.WindowTicks over the bucket
// series and reports the first crossing.
func evalWindow(series map[uint64]uint64, buckets []uint64, cal Calibration) *DetectionEvent {
	w := cal.WindowTicks / kernel.TicksPerSecond
	if w == 0 {
		w = 1
	}
	var sum uint64
	lo := 0
	for _, b := range buckets {
		sum += series[b]
		// Keep only buckets inside the half-open window (b-w, b].
		for buckets[lo]+w <= b {
			sum -= series[buckets[lo]]
			lo++
		}
		if sum > cal.Threshold {
			// The detector notices as bucket b completes.
			return &DetectionEvent{Tick: (b + 1) * kernel.TicksPerSecond, WindowRate: sum}
		}
	}
	return nil
}

// evalEWMA folds the per-second counts through a fixed-point
// exponentially-weighted moving average (alpha = 1/2^AlphaShift) and
// reports the first tick the smoothed rate crosses the threshold. Empty
// seconds between occupied buckets decay the average.
func evalEWMA(series map[uint64]uint64, buckets []uint64, cal Calibration) *DetectionEvent {
	shift := cal.AlphaShift
	if shift == 0 {
		shift = 3
	}
	limit := cal.Threshold << ewmaScale
	var ewma uint64
	for b := buckets[0]; b <= buckets[len(buckets)-1]; b++ {
		x := series[b] << ewmaScale
		if x >= ewma {
			ewma += (x - ewma) >> shift
		} else {
			ewma -= (ewma - x) >> shift
		}
		if ewma > limit {
			return &DetectionEvent{Tick: (b + 1) * kernel.TicksPerSecond, WindowRate: ewma >> ewmaScale}
		}
	}
	return nil
}

// BucketExc folds a tracer exception log into the kernel's per-virtual-
// second fault-series shape, counting access violations only.
func BucketExc(events []trace.ExcEvent) map[uint64]uint64 {
	av := filterAV(events)
	if len(av) == 0 {
		return nil
	}
	out := make(map[uint64]uint64, len(av))
	for _, e := range av {
		out[e.Clock/kernel.TicksPerSecond]++
	}
	return out
}

// --- extrapolation -------------------------------------------------------

// extrapolate derives a primitive's detectability row values from its
// measured probe totals: the attacker repeats the measured loop
// back-to-back, sustaining faults*TicksPerSecond/ticks faults per virtual
// second, and each calibration is solved analytically (window) or stepped
// (EWMA) against that sustained rate.
func extrapolate(row *Detectability, cals []Calibration) {
	if row.Faults == 0 {
		row.Undetectable = true
		return
	}
	ticks := row.Ticks
	if ticks == 0 {
		ticks = 1
	}
	row.FaultRate = row.Faults * kernel.TicksPerSecond / ticks
	for _, cal := range cals {
		switch cal.Kind {
		case KindEWMA:
			if t := ewmaTripTick(row.FaultRate, cal); t != 0 {
				row.Trips = append(row.Trips, Trip{Detector: cal.Name, Tick: t, WindowRate: row.FaultRate})
			}
		default:
			// Sustained faults per window; trips when it crosses the
			// threshold, at the tick the (threshold+1)-th fault lands.
			count := row.Faults * cal.WindowTicks / ticks
			if count > cal.Threshold {
				trip := ((cal.Threshold+1)*ticks + row.Faults - 1) / row.Faults
				row.Trips = append(row.Trips, Trip{Detector: cal.Name, Tick: trip, WindowRate: count})
			}
		}
	}
	def := DefaultCalibration()
	probes := row.Probes
	if probes == 0 {
		probes = 1
	}
	row.StealthMargin = def.Threshold * probes * kernel.TicksPerSecond / (row.Faults * def.WindowTicks)
	if row.StealthMargin > 0 {
		seconds := (scanProbes + row.StealthMargin - 1) / row.StealthMargin
		row.StealthScanTicks = seconds * kernel.TicksPerSecond
	}
}

// ewmaTripTick steps the EWMA against a sustained per-second rate and
// returns the virtual tick of the first crossing (0 when the rate never
// crosses — the average converges to the rate itself).
func ewmaTripTick(rate uint64, cal Calibration) uint64 {
	if rate <= cal.Threshold {
		return 0
	}
	shift := cal.AlphaShift
	if shift == 0 {
		shift = 3
	}
	limit := cal.Threshold << ewmaScale
	x := rate << ewmaScale
	var ewma uint64
	for step := uint64(1); step <= 256; step++ {
		ewma += (x - ewma) >> shift
		if ewma > limit {
			return step * kernel.TicksPerSecond
		}
	}
	return 0
}

// --- the observer --------------------------------------------------------

// Detect accumulates detection inputs across one or more runs and renders
// them as a Report. All Add methods fold commutatively (rows are keyed,
// counts sum), so concurrent per-job contributions in any order produce the
// same snapshot — the engine's worker-count and cache invariance rests on
// this, exactly like the metrics collector's fault series.
type Detect struct {
	mu   sync.Mutex
	cals []Calibration
	secs map[string]*secAccum
}

type secAccum struct {
	pipeline, target string
	rows             map[string]*rowAccum
	series           map[uint64]uint64
	baseline         *baseAccum
}

type rowAccum struct {
	probes, faults, ticks uint64
	profile               map[uint64]uint64
}

type baseAccum struct {
	phase         string
	faults, ticks uint64
	series        map[uint64]uint64
}

// NewDetect creates an observer over the given calibration panel
// (DefaultCalibrations when none are given).
func NewDetect(cals ...Calibration) *Detect {
	if len(cals) == 0 {
		cals = DefaultCalibrations()
	}
	return &Detect{cals: cals, secs: make(map[string]*secAccum)}
}

// Calibrations returns a copy of the observer's calibration panel, so a
// run-local observer can evaluate on the same panel as a shared one.
func (d *Detect) Calibrations() []Calibration {
	if d == nil {
		return nil
	}
	return append([]Calibration(nil), d.cals...)
}

func (d *Detect) sec(pipeline, target string) *secAccum {
	key := pipeline + "\x00" + target
	s, ok := d.secs[key]
	if !ok {
		s = &secAccum{pipeline: pipeline, target: target, rows: make(map[string]*rowAccum)}
		d.secs[key] = s
	}
	return s
}

// AddPrimitive folds one primitive's measured probe totals into its
// detectability row. Repeat calls for the same primitive sum — the derived
// rates and margins are ratios, so folding n identical runs leaves them
// unchanged.
func (d *Detect) AddPrimitive(pipeline, target, primitive string, probes, faults, ticks uint64, profile map[uint64]uint64) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.sec(pipeline, target)
	r, ok := s.rows[primitive]
	if !ok {
		r = &rowAccum{}
		s.rows[primitive] = r
	}
	r.probes += probes
	r.faults += faults
	r.ticks += ticks
	if len(profile) > 0 {
		if r.profile == nil {
			r.profile = make(map[uint64]uint64, len(profile))
		}
		for b, n := range profile {
			r.profile[b] += n
		}
	}
}

// AddSeries folds a fault series (per-virtual-second buckets) into the
// section's run-level stream — what the online detector watches live.
func (d *Detect) AddSeries(pipeline, target string, buckets map[uint64]uint64) {
	if d == nil || len(buckets) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.sec(pipeline, target)
	if s.series == nil {
		s.series = make(map[uint64]uint64, len(buckets))
	}
	for b, n := range buckets {
		s.series[b] += n
	}
}

// AddBaseline folds the benign phase's fault series into the section
// baseline. The phase name of the first call sticks.
func (d *Detect) AddBaseline(pipeline, target, phase string, faults, ticks uint64, series map[uint64]uint64) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.sec(pipeline, target)
	if s.baseline == nil {
		s.baseline = &baseAccum{phase: phase}
	}
	s.baseline.faults += faults
	s.baseline.ticks += ticks
	if len(series) > 0 {
		if s.baseline.series == nil {
			s.baseline.series = make(map[uint64]uint64, len(series))
		}
		for b, n := range series {
			s.baseline.series[b] += n
		}
	}
}

// FoldSection merges an already-rendered section back into the observer —
// how the metrics registry accumulates detection records across runs.
func (d *Detect) FoldSection(sec *Section) {
	if d == nil || sec == nil {
		return
	}
	for _, row := range sec.Rows {
		d.AddPrimitive(sec.Pipeline, sec.Target, row.Primitive, row.Probes, row.Faults, row.Ticks, row.Profile)
	}
	d.AddSeries(sec.Pipeline, sec.Target, sec.Series)
	if b := sec.Baseline; b != nil {
		d.AddBaseline(sec.Pipeline, sec.Target, b.Phase, b.Faults, b.Ticks, b.Series)
	}
}

// Section renders one pipeline/target's current record: rows extrapolated
// and sorted, the run-level series evaluated against the panel, the
// baseline evaluated separately. Returns nil when the section has no data.
func (d *Detect) Section(pipeline, target string) *Section {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.secs[pipeline+"\x00"+target]
	if !ok {
		return nil
	}
	return d.render(s)
}

// render snapshots one accumulated section; the caller holds d.mu.
func (d *Detect) render(s *secAccum) *Section {
	out := &Section{
		Pipeline:     s.pipeline,
		Target:       s.target,
		Calibrations: append([]Calibration(nil), d.cals...),
	}
	names := make([]string, 0, len(s.rows))
	for name := range s.rows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := s.rows[name]
		row := Detectability{
			Primitive: name,
			Probes:    r.probes,
			Faults:    r.faults,
			Ticks:     r.ticks,
			Profile:   cloneBuckets(r.profile),
		}
		extrapolate(&row, d.cals)
		out.Rows = append(out.Rows, row)
	}
	out.Series = cloneBuckets(s.series)
	out.Events = Evaluate(s.pipeline, s.target, s.series, d.cals)
	if s.baseline != nil {
		def := DefaultCalibration()
		b := &Baseline{
			Phase:  s.baseline.phase,
			Faults: s.baseline.faults,
			Ticks:  s.baseline.ticks,
			Peak:   peakOverBuckets(s.baseline.series, def.WindowTicks),
			Series: cloneBuckets(s.baseline.series),
			Events: Evaluate(s.pipeline, s.target, s.baseline.series, d.cals),
		}
		out.Baseline = b
	}
	return out
}

// peakOverBuckets is the bucket-granular peak window rate: the maximum sum
// over any half-open window of the given width.
func peakOverBuckets(series map[uint64]uint64, windowTicks uint64) uint64 {
	if len(series) == 0 {
		return 0
	}
	buckets := make([]uint64, 0, len(series))
	for b := range series {
		buckets = append(buckets, b)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i] < buckets[j] })
	w := windowTicks / kernel.TicksPerSecond
	if w == 0 {
		w = 1
	}
	var sum, peak uint64
	lo := 0
	for _, b := range buckets {
		sum += series[b]
		for buckets[lo]+w <= b {
			sum -= series[buckets[lo]]
			lo++
		}
		if sum > peak {
			peak = sum
		}
	}
	return peak
}

func cloneBuckets(m map[uint64]uint64) map[uint64]uint64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[uint64]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Snapshot renders the full detectability report: every section, sorted by
// pipeline then target. The observer keeps accumulating afterwards.
func (d *Detect) Snapshot() *Report {
	rep := &Report{Schema: DetectSchema, Sections: []Section{}}
	if d == nil {
		return rep
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	keys := make([]string, 0, len(d.secs))
	for k := range d.secs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rep.Sections = append(rep.Sections, *d.render(d.secs[k]))
	}
	return rep
}

// --- rendering -----------------------------------------------------------

// WriteJSON writes the indented report JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTop writes the human summary: per section, the baseline verdict and
// the rows ranked by extrapolated fault rate (most detectable first).
func (r *Report) WriteTop(w io.Writer) error {
	for i := range r.Sections {
		sec := &r.Sections[i]
		if _, err := fmt.Fprintf(w, "== detect: %s/%s ==\n", sec.Pipeline, sec.Target); err != nil {
			return err
		}
		if b := sec.Baseline; b != nil {
			verdict := "clean"
			if len(b.Events) > 0 {
				verdict = fmt.Sprintf("FLAGGED by %d detector(s)", len(b.Events))
			}
			fmt.Fprintf(w, "baseline %-8s %8d faults  peak %d/s  %s\n", b.Phase, b.Faults, b.Peak, verdict)
		}
		if len(sec.Events) > 0 {
			for _, ev := range sec.Events {
				fmt.Fprintf(w, "live     %-16s tripped at t=%dt  rate %d/window\n", ev.Detector, ev.Tick, ev.WindowRate)
			}
		}
		rows := append([]Detectability(nil), sec.Rows...)
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].FaultRate > rows[j].FaultRate })
		for _, row := range rows {
			trips := "evades all"
			if row.Undetectable {
				trips = "no faults — invisible"
			} else if len(row.Trips) > 0 {
				trips = ""
				for i, t := range row.Trips {
					if i > 0 {
						trips += " "
					}
					trips += fmt.Sprintf("%s@%dt", t.Detector, t.Tick)
				}
			}
			fmt.Fprintf(w, "  %-40s rate %8d/s  margin %5d/s  %s\n", row.Primitive, row.FaultRate, row.StealthMargin, trips)
		}
	}
	return nil
}
