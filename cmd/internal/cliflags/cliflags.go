// Package cliflags holds the flag definitions and request plumbing shared
// by the crashresist commands (crtables, crdiscover, crmon, crprobe), so
// `-workers` or `-cache-dir` means exactly the same thing — same default,
// same help text, same behavior on a broken cache directory — no matter
// which tool it is passed to.
package cliflags

import (
	"flag"
	"fmt"
	"io"

	"crashresist"
)

// Analysis groups the analysis-tuning flags. Register the subsets a
// command supports, Parse, then build the library request with Request.
type Analysis struct {
	Seed      int64
	Workers   int
	ChaosSeed int64
	CacheDir  string
	Trace     string
	Scale     string
}

// RegisterSeed adds -seed.
func (a *Analysis) RegisterSeed(fs *flag.FlagSet) {
	fs.Int64Var(&a.Seed, "seed", 42, "analysis seed (fixes ASLR)")
}

// RegisterScale adds -scale with the given default. The knob sizes both
// the browser corpus (small/paper hand-built and golden-pinned;
// large/mega append seeded generated DLLs, property-checked) and the
// generated server fleet ("gen", "gen-<i>" targets).
func (a *Analysis) RegisterScale(fs *flag.FlagSet, def string) {
	fs.StringVar(&a.Scale, "scale", def,
		"corpus scale: small, paper, large or mega (large/mega add generated targets at 10-100x paper size)")
}

// RegisterPool adds -workers and -cache-dir.
func (a *Analysis) RegisterPool(fs *flag.FlagSet) {
	fs.IntVar(&a.Workers, "workers", 0, "analysis worker pool size (0 = GOMAXPROCS)")
	fs.StringVar(&a.CacheDir, "cache-dir", "", "persist per-unit analysis results under this directory and reuse them on later runs")
}

// RegisterChaos adds -chaos-seed and -trace.
func (a *Analysis) RegisterChaos(fs *flag.FlagSet) {
	fs.Int64Var(&a.ChaosSeed, "chaos-seed", 0, "inject deterministic faults from this seed, with retry and graceful degradation (0 = off)")
	fs.StringVar(&a.Trace, "trace", "", "write the run span trees to this file as Chrome trace-event JSON")
}

// OpenCache opens -cache-dir, or returns nil (with a warning on stderr)
// when the flag is unset or the directory is unusable: a broken cache dir
// costs recomputation, never the run.
func (a *Analysis) OpenCache(stderr io.Writer, tool string) *crashresist.AnalysisCache {
	if a.CacheDir == "" {
		return nil
	}
	c, err := crashresist.OpenAnalysisCache(a.CacheDir)
	if err != nil {
		fmt.Fprintf(stderr, "%s: cache disabled: %v\n", tool, err)
		return nil
	}
	return c
}

// Request translates the parsed flags into a library request: scale, seed,
// worker pool, the persistent cache (when -cache-dir opens) and the chaos
// seed, which Run turns into the default fault plan with two retries. The
// caller names the target and attaches observers.
func (a *Analysis) Request(stderr io.Writer, tool string) crashresist.Request {
	return crashresist.Request{
		Scale:     a.Scale,
		Seed:      a.Seed,
		Workers:   a.Workers,
		ChaosSeed: a.ChaosSeed,
		Cache:     a.OpenCache(stderr, tool),
	}
}

// Profiling groups the exact-cost-profiler flags shared by the analysis
// CLIs. The zero value (no -profile) disables profiling entirely.
type Profiling struct {
	Mode string
	p    *crashresist.Profile
}

// Register adds -profile.
func (p *Profiling) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.Mode, "profile", "",
		"write the run's exact virtual-cost profile to stdout instead of the report: top (ranked hot spots), folded (flamegraph.pl input) or json")
}

// Validate rejects unknown -profile values.
func (p *Profiling) Validate() error {
	switch p.Mode {
	case "", "top", "folded", "json":
		return nil
	default:
		return fmt.Errorf("%w: unknown -profile %q (want top, folded or json)", crashresist.ErrBadParams, p.Mode)
	}
}

// Enabled reports whether -profile was given.
func (p *Profiling) Enabled() bool { return p.Mode != "" }

// Profile returns the live profile the run should charge into, creating
// it on first use; nil when profiling is off.
func (p *Profiling) Profile() *crashresist.Profile {
	if !p.Enabled() {
		return nil
	}
	if p.p == nil {
		p.p = crashresist.NewProfile()
	}
	return p.p
}

// Emit writes the accumulated profile to w in the selected mode. A no-op
// when profiling is off.
func (p *Profiling) Emit(w io.Writer) error {
	if !p.Enabled() {
		return nil
	}
	snap := p.Profile().Snapshot()
	switch p.Mode {
	case "top":
		return snap.WriteTop(w, 0)
	case "folded":
		return snap.WriteFolded(w)
	case "json":
		return snap.WriteJSON(w)
	}
	return nil
}

// Detection groups the defense-observatory flags shared by the analysis
// CLIs. The zero value (no -detect) disables detection entirely.
type Detection struct {
	Mode string
	d    *crashresist.Detect
}

// Register adds -detect.
func (d *Detection) Register(fs *flag.FlagSet) {
	fs.StringVar(&d.Mode, "detect", "",
		"watch the run with the defense detection engine and write the detectability report to stdout after the report: top (ranked text) or json")
}

// Validate rejects unknown -detect values.
func (d *Detection) Validate() error {
	switch d.Mode {
	case "", "top", "json":
		return nil
	default:
		return fmt.Errorf("%w: unknown -detect %q (want top or json)", crashresist.ErrBadParams, d.Mode)
	}
}

// Enabled reports whether -detect was given.
func (d *Detection) Enabled() bool { return d.Mode != "" }

// Detect returns the live observer the run should stream into, creating it
// on first use (default calibration panel); nil when detection is off.
func (d *Detection) Detect() *crashresist.Detect {
	if !d.Enabled() {
		return nil
	}
	if d.d == nil {
		d.d = crashresist.NewDetect()
	}
	return d.d
}

// Emit writes the accumulated detectability report to w in the selected
// mode. A no-op when detection is off.
func (d *Detection) Emit(w io.Writer) error {
	if !d.Enabled() {
		return nil
	}
	rep := d.Detect().Snapshot()
	switch d.Mode {
	case "top":
		return rep.WriteTop(w)
	case "json":
		return rep.WriteJSON(w)
	}
	return nil
}

// Output groups the report-rendering flags.
type Output struct {
	Format  string
	Metrics bool
}

// Register adds -format and -metrics.
func (o *Output) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Format, "format", "text", "output format: text or json")
	fs.BoolVar(&o.Metrics, "metrics", false, "print run stats to stderr")
}

// Validate rejects unknown -format values.
func (o *Output) Validate() error {
	switch o.Format {
	case "text", "json":
		return nil
	default:
		return fmt.Errorf("%w: unknown -format %q (want text or json)", crashresist.ErrBadParams, o.Format)
	}
}

// JSON reports whether -format json was selected.
func (o *Output) JSON() bool { return o.Format == "json" }

// EmitStats writes run stats to w when -metrics is on.
func (o *Output) EmitStats(w io.Writer, st *crashresist.RunStats) {
	if o.Metrics && st != nil {
		fmt.Fprint(w, st.Format())
	}
}
