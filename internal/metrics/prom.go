package metrics

// Prometheus text-format exposition and the live serving surface. Registry
// is a Sink that accumulates completed runs — counter totals keyed by
// (pipeline, target), latency histograms merged per (pipeline, target,
// stage) — and renders them in Prometheus exposition format. Handler wires
// the registry and net/http/pprof into one mux for cmd/crmon.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"

	"crashresist/internal/defense"
	"crashresist/internal/prof"
)

// tracedRuns bounds the recent-run ring served on /trace.json.
const tracedRuns = 8

// promLabels identifies one counter series.
type promLabels struct {
	pipeline string
	target   string
}

// promStageLabels identifies one histogram series.
type promStageLabels struct {
	pipeline string
	target   string
	stage    string
}

// Registry accumulates completed runs for live exposition. It implements
// Sink, is safe for concurrent use, and can be attached to any number of
// analyses in one process.
type Registry struct {
	mu       sync.Mutex
	counters map[promLabels]map[string]uint64
	runs     map[promLabels]uint64
	wallNS   map[promLabels]int64
	hists    map[promStageLabels]*HistSnapshot
	faults   map[promLabels]map[uint64]uint64
	recent   *Ring[*RunStats]
	profile  *prof.Profile
	// detect folds every flushed run's detection section (RunStats.Detect)
	// so /defense and the detection families serve a process-wide view.
	// It carries its own lock; fold and snapshot calls happen outside mu.
	detect *defense.Detect
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[promLabels]map[string]uint64),
		runs:     make(map[promLabels]uint64),
		wallNS:   make(map[promLabels]int64),
		hists:    make(map[promStageLabels]*HistSnapshot),
		faults:   make(map[promLabels]map[uint64]uint64),
		recent:   NewRing[*RunStats](tracedRuns),
		detect:   defense.NewDetect(),
	}
}

// DetectReport snapshots the detectability report folded from every
// flushed run that carried a detection section; empty when none did.
func (g *Registry) DetectReport() *defense.Report {
	if g == nil {
		return defense.NewDetect().Snapshot()
	}
	return g.detect.Snapshot()
}

// SetProfile attaches the cost profile served on /profile. The registry
// does not copy it: callers keep charging into the same profile while it
// is served, and Snapshot captures a consistent view per request.
func (g *Registry) SetProfile(p *prof.Profile) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.profile = p
	g.mu.Unlock()
}

// Profile returns the attached cost profile, nil when none was set.
func (g *Registry) Profile() *prof.Profile {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.profile
}

// Event implements Sink (no-op: the registry aggregates completed runs).
func (g *Registry) Event(StageEvent) {}

// Flush implements Sink, folding one completed run into the registry.
func (g *Registry) Flush(stats *RunStats) error {
	if g == nil || stats == nil {
		return nil
	}
	g.detect.FoldSection(stats.Detect)
	g.mu.Lock()
	defer g.mu.Unlock()
	key := promLabels{pipeline: stats.Pipeline, target: stats.Target}
	cm := g.counters[key]
	if cm == nil {
		cm = make(map[string]uint64)
		g.counters[key] = cm
	}
	for name, v := range stats.Counters {
		cm[name] += v
	}
	g.runs[key]++
	g.wallNS[key] = stats.WallNS
	if len(stats.FaultEvents) > 0 {
		fm := g.faults[key]
		if fm == nil {
			fm = make(map[uint64]uint64)
			g.faults[key] = fm
		}
		for b, n := range stats.FaultEvents {
			fm[b] += n
		}
	}
	for _, st := range stats.Stages {
		if st.Latency == nil {
			continue
		}
		hk := promStageLabels{pipeline: stats.Pipeline, target: stats.Target, stage: st.Name}
		h := g.hists[hk]
		if h == nil {
			h = &HistSnapshot{}
			g.hists[hk] = h
		}
		h.Merge(st.Latency)
	}
	g.recent.Push(stats)
	return nil
}

// Runs returns the retained recent run snapshots, oldest first.
func (g *Registry) Runs() []*RunStats {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.recent.Items()
}

// labelEscaper applies the text format's label-value escapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// QuoteLabel renders v as a quoted label value of the Prometheus text
// format. The format escapes only backslash, double quote and line feed,
// so every other byte is written as is; Go's %q would write escapes such
// as \t or \u00a0 that make a scrape unparseable.
func QuoteLabel(v string) string {
	return `"` + labelEscaper.Replace(v) + `"`
}

// String renders the {pipeline,target} label set.
func (l promLabels) String() string {
	return "pipeline=" + QuoteLabel(l.pipeline) + ",target=" + QuoteLabel(l.target)
}

// String renders the {pipeline,target,stage} label set.
func (l promStageLabels) String() string {
	return promLabels{l.pipeline, l.target}.String() + ",stage=" + QuoteLabel(l.stage)
}

// WritePrometheus renders the registry in Prometheus text exposition format
// (version 0.0.4): one counter family per run counter, a summary-style
// family for stage latency quantiles, and a cumulative bucket family.
// Series are emitted in sorted order so scrapes are diff-stable.
func (g *Registry) WritePrometheus(w io.Writer) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	type counterSeries struct {
		name   string
		labels promLabels
		v      uint64
	}
	var counters []counterSeries
	for labels, cm := range g.counters {
		for name, v := range cm {
			counters = append(counters, counterSeries{name: name, labels: labels, v: v})
		}
	}
	type runSeries struct {
		labels promLabels
		runs   uint64
		wallNS int64
	}
	var runs []runSeries
	for labels, n := range g.runs {
		runs = append(runs, runSeries{labels: labels, runs: n, wallNS: g.wallNS[labels]})
	}
	type histSeries struct {
		labels promStageLabels
		h      *HistSnapshot
	}
	var hists []histSeries
	for labels, h := range g.hists {
		hists = append(hists, histSeries{labels: labels, h: h.Clone()})
	}
	type faultSeries struct {
		labels promLabels
		bucket uint64
		v      uint64
	}
	var faults []faultSeries
	for labels, fm := range g.faults {
		for b, v := range fm {
			faults = append(faults, faultSeries{labels: labels, bucket: b, v: v})
		}
	}
	g.mu.Unlock()

	sort.Slice(counters, func(i, j int) bool {
		a, b := counters[i], counters[j]
		if a.name != b.name {
			return a.name < b.name
		}
		if a.labels.pipeline != b.labels.pipeline {
			return a.labels.pipeline < b.labels.pipeline
		}
		return a.labels.target < b.labels.target
	})
	sort.Slice(runs, func(i, j int) bool {
		a, b := runs[i], runs[j]
		if a.labels.pipeline != b.labels.pipeline {
			return a.labels.pipeline < b.labels.pipeline
		}
		return a.labels.target < b.labels.target
	})
	sort.Slice(faults, func(i, j int) bool {
		a, b := faults[i], faults[j]
		if a.labels.pipeline != b.labels.pipeline {
			return a.labels.pipeline < b.labels.pipeline
		}
		if a.labels.target != b.labels.target {
			return a.labels.target < b.labels.target
		}
		return a.bucket < b.bucket
	})
	sort.Slice(hists, func(i, j int) bool {
		a, b := hists[i].labels, hists[j].labels
		if a.pipeline != b.pipeline {
			return a.pipeline < b.pipeline
		}
		if a.target != b.target {
			return a.target < b.target
		}
		return a.stage < b.stage
	})

	var b strings.Builder
	lastFamily := ""
	for _, c := range counters {
		family := "crashresist_" + c.name + "_total"
		if family != lastFamily {
			fmt.Fprintf(&b, "# HELP %s Run counter %q accumulated across completed analyses.\n", family, c.name)
			fmt.Fprintf(&b, "# TYPE %s counter\n", family)
			lastFamily = family
		}
		fmt.Fprintf(&b, "%s{%s} %d\n", family, c.labels, c.v)
	}
	if len(runs) > 0 {
		b.WriteString("# HELP crashresist_runs_total Completed analysis runs.\n")
		b.WriteString("# TYPE crashresist_runs_total counter\n")
		for _, r := range runs {
			fmt.Fprintf(&b, "crashresist_runs_total{%s} %d\n", r.labels, r.runs)
		}
		b.WriteString("# HELP crashresist_last_run_wall_seconds Wall-clock duration of the most recent run.\n")
		b.WriteString("# TYPE crashresist_last_run_wall_seconds gauge\n")
		for _, r := range runs {
			fmt.Fprintf(&b, "crashresist_last_run_wall_seconds{%s} %g\n", r.labels, float64(r.wallNS)/1e9)
		}
	}
	if len(faults) > 0 {
		b.WriteString("# HELP crashresist_fault_events_total Kernel -EFAULT completions bucketed by virtual second of the process clock.\n")
		b.WriteString("# TYPE crashresist_fault_events_total counter\n")
		for _, f := range faults {
			fmt.Fprintf(&b, "crashresist_fault_events_total{%s,tick_bucket=\"%d\"} %d\n", f.labels, f.bucket, f.v)
		}
	}
	g.writeDetectFamilies(&b)
	if len(hists) > 0 {
		b.WriteString("# HELP crashresist_stage_latency_ticks Per-job virtual-cost distribution by stage (deterministic ticks).\n")
		b.WriteString("# TYPE crashresist_stage_latency_ticks summary\n")
		for _, h := range hists {
			labels := h.labels.String()
			for _, q := range []struct {
				q string
				v uint64
			}{{"0.5", h.h.P50}, {"0.95", h.h.P95}, {"0.99", h.h.P99}} {
				fmt.Fprintf(&b, "crashresist_stage_latency_ticks{%s,quantile=%s} %d\n", labels, QuoteLabel(q.q), q.v)
			}
			fmt.Fprintf(&b, "crashresist_stage_latency_ticks_sum{%s} %d\n", labels, h.h.Sum)
			fmt.Fprintf(&b, "crashresist_stage_latency_ticks_count{%s} %d\n", labels, h.h.Count)
		}
		b.WriteString("# HELP crashresist_stage_latency_ticks_bucket Cumulative per-job virtual-cost buckets by stage.\n")
		b.WriteString("# TYPE crashresist_stage_latency_ticks_bucket counter\n")
		for _, h := range hists {
			labels := h.labels.String()
			var cum uint64
			for _, bk := range h.h.Buckets {
				cum += bk.N
				fmt.Fprintf(&b, "crashresist_stage_latency_ticks_bucket{%s,le=\"%d\"} %d\n", labels, bk.Hi, cum)
			}
			fmt.Fprintf(&b, "crashresist_stage_latency_ticks_bucket{%s,le=\"+Inf\"} %d\n", labels, cum)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeDetectFamilies renders the detection families from the folded
// sections: trip counts per detector calibration (live stream plus benign
// baseline) and a per-target summary of the primitives' stealth margins
// (the max probe rate evading the default detector). Sections without trips
// still emit a zero-valued detections series per calibration, so a clean
// defended run is distinguishable from an undefended one.
func (g *Registry) writeDetectFamilies(b *strings.Builder) {
	rep := g.detect.Snapshot()
	if len(rep.Sections) == 0 {
		return
	}
	b.WriteString("# HELP crashresist_detections_total Detection-engine trips over the run fault streams, by detector calibration.\n")
	b.WriteString("# TYPE crashresist_detections_total counter\n")
	for _, sec := range rep.Sections {
		trips := make(map[string]uint64, len(sec.Calibrations))
		for _, cal := range sec.Calibrations {
			trips[cal.Name] = 0
		}
		for _, ev := range sec.Events {
			trips[ev.Detector]++
		}
		if sec.Baseline != nil {
			for _, ev := range sec.Baseline.Events {
				trips[ev.Detector]++
			}
		}
		names := make([]string, 0, len(trips))
		for name := range trips {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(b, "crashresist_detections_total{%s,detector=%s} %d\n",
				promLabels{sec.Pipeline, sec.Target}, QuoteLabel(name), trips[name])
		}
	}
	headerDone := false
	for _, sec := range rep.Sections {
		var margins []uint64
		var sum uint64
		for _, row := range sec.Rows {
			if row.Undetectable {
				continue
			}
			margins = append(margins, row.StealthMargin)
			sum += row.StealthMargin
		}
		if len(margins) == 0 {
			continue
		}
		if !headerDone {
			b.WriteString("# HELP crashresist_stealth_margin_probes_per_sec Max probe rate (probes per virtual second) at which a primitive evades the default detector; summary over a target's detectable primitives.\n")
			b.WriteString("# TYPE crashresist_stealth_margin_probes_per_sec summary\n")
			headerDone = true
		}
		sort.Slice(margins, func(i, j int) bool { return margins[i] < margins[j] })
		labels := promLabels{sec.Pipeline, sec.Target}.String()
		fmt.Fprintf(b, "crashresist_stealth_margin_probes_per_sec{%s,quantile=\"0\"} %d\n", labels, margins[0])
		fmt.Fprintf(b, "crashresist_stealth_margin_probes_per_sec{%s,quantile=\"0.5\"} %d\n", labels, margins[len(margins)/2])
		fmt.Fprintf(b, "crashresist_stealth_margin_probes_per_sec{%s,quantile=\"1\"} %d\n", labels, margins[len(margins)-1])
		fmt.Fprintf(b, "crashresist_stealth_margin_probes_per_sec_sum{%s} %d\n", labels, sum)
		fmt.Fprintf(b, "crashresist_stealth_margin_probes_per_sec_count{%s} %d\n", labels, len(margins))
	}
}

// Handler returns the live serving surface: /metrics (Prometheus text),
// /profile (the attached cost profile: JSON by default,
// ?format=folded for flamegraph.pl input, ?format=top for the ranked
// report), /defense (the folded detectability report: JSON by default,
// ?format=top for the ranked text view), /trace.json (Chrome trace of the
// recent runs), /debug/pprof (runtime profiles) and /healthz.
func (g *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		g.WritePrometheus(w)
	})
	mux.HandleFunc("/profile", func(w http.ResponseWriter, r *http.Request) {
		snap := g.Profile().Snapshot() // nil-safe: empty profile serves empty
		switch r.URL.Query().Get("format") {
		case "folded":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			snap.WriteFolded(w)
		case "top":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			snap.WriteTop(w, 0)
		default:
			w.Header().Set("Content-Type", "application/json")
			snap.WriteJSON(w)
		}
	})
	mux.HandleFunc("/defense", func(w http.ResponseWriter, r *http.Request) {
		rep := g.DetectReport()
		switch r.URL.Query().Get("format") {
		case "top":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			rep.WriteTop(w)
		default:
			w.Header().Set("Content-Type", "application/json")
			rep.WriteJSON(w)
		}
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		WriteChromeTrace(w, g.Runs()...)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}
