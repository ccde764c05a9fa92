// Package cliflags holds the flag definitions and request plumbing shared
// by the crashresist commands (crtables, crdiscover, crmon, crprobe), so
// `-workers`, `-cache-dir` or `-emit` means exactly the same thing — same
// default, same help text, same behavior on a broken cache directory — no
// matter which tool it is passed to, and every tool maps its errors to the
// same exit codes.
package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"crashresist"
)

// Analysis groups the analysis-tuning flags. Register the subsets a
// command supports, Parse, then build the library request with Request.
type Analysis struct {
	Seed      int64
	Workers   int
	ChaosSeed int64
	CacheDir  string
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

// RegisterChaos adds -chaos-seed.
func (a *Analysis) RegisterChaos(fs *flag.FlagSet) {
	fs.Int64Var(&a.ChaosSeed, "chaos-seed", 0, "inject deterministic faults from this seed, with retry and graceful degradation (0 = off)")
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

// Output groups the report-rendering flags.
type Output struct {
	Format string
}

// Register adds -format.
func (o *Output) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Format, "format", "text", "output format: text or json")
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

// emitter renders one KIND:MODE artifact from the Emit's observers and the
// stats of the runs that fed them.
type emitter struct {
	kind, mode string
	write      func(e *Emit, w io.Writer, runs []*crashresist.RunStats) error
}

// emitters is the -emit table. The first row of a kind is its default mode.
var emitters = []emitter{
	{"profile", "top", func(e *Emit, w io.Writer, _ []*crashresist.RunStats) error {
		return e.Profile.Snapshot().WriteTop(w, 0)
	}},
	{"profile", "folded", func(e *Emit, w io.Writer, _ []*crashresist.RunStats) error {
		return e.Profile.Snapshot().WriteFolded(w)
	}},
	{"profile", "json", func(e *Emit, w io.Writer, _ []*crashresist.RunStats) error {
		return e.Profile.Snapshot().WriteJSON(w)
	}},
	{"detect", "top", func(e *Emit, w io.Writer, _ []*crashresist.RunStats) error {
		return e.Detect.Snapshot().WriteTop(w)
	}},
	{"detect", "json", func(e *Emit, w io.Writer, _ []*crashresist.RunStats) error {
		return e.Detect.Snapshot().WriteJSON(w)
	}},
	{"stats", "text", func(_ *Emit, w io.Writer, runs []*crashresist.RunStats) error {
		for _, st := range runs {
			if _, err := io.WriteString(w, st.Format()); err != nil {
				return err
			}
		}
		return nil
	}},
	{"trace", "json", func(_ *Emit, w io.Writer, runs []*crashresist.RunStats) error {
		return crashresist.WriteChromeTrace(w, runs...)
	}},
}

// emitChoices lists every KIND:MODE the table accepts.
func emitChoices() string {
	names := make([]string, len(emitters))
	for i, em := range emitters {
		names[i] = em.kind + ":" + em.mode
	}
	return strings.Join(names, ", ")
}

// Emit is the repeatable -emit KIND[:MODE]=PATH flag. Each use writes one
// observability artifact to its own file once the run is over, so the
// report is alone on stdout whatever is emitted. Register it, attach
// Profile and Detect to the run, then call Write with the runs' stats.
type Emit struct {
	// Profile and Detect are the live observers the run charges into;
	// each is nil unless its kind was requested.
	Profile *crashresist.Profile
	Detect  *crashresist.Detect
	outs    []emitOut
}

// emitOut is one parsed -emit value.
type emitOut struct {
	emitter
	path string
}

// Register adds -emit.
func (e *Emit) Register(fs *flag.FlagSet) {
	fs.Var(e, "emit", "after the run, write an observability artifact to the regular file PATH, never to stdout; repeatable. "+
		"KIND[:MODE]=PATH with KIND:MODE one of "+emitChoices()+" (a kind's first mode is its default)")
}

// String renders the requested outputs in flag syntax.
func (e *Emit) String() string {
	if e == nil {
		return ""
	}
	specs := make([]string, len(e.outs))
	for i, o := range e.outs {
		specs[i] = o.kind + ":" + o.mode + "=" + o.path
	}
	return strings.Join(specs, " ")
}

// Set parses one KIND[:MODE]=PATH value, creating the observer its kind
// reads. A value with no PATH, an unknown kind or an unknown mode is
// rejected, wrapping ErrBadParams, before any work starts.
func (e *Emit) Set(v string) error {
	spec, path, _ := strings.Cut(v, "=")
	if path == "" {
		return fmt.Errorf("%w: -emit %q names no file (want KIND[:MODE]=PATH)", crashresist.ErrBadParams, v)
	}
	kind, mode, _ := strings.Cut(spec, ":")
	for _, em := range emitters {
		if em.kind != kind || (mode != "" && em.mode != mode) {
			continue
		}
		switch {
		case kind == "profile" && e.Profile == nil:
			e.Profile = crashresist.NewProfile()
		case kind == "detect" && e.Detect == nil:
			e.Detect = crashresist.NewDetect()
		}
		e.outs = append(e.outs, emitOut{em, path})
		return nil
	}
	return fmt.Errorf("%w: unknown -emit %q (want one of %s)", crashresist.ErrBadParams, spec, emitChoices())
}

// Write renders every requested artifact, in flag order, each to its own
// file.
func (e *Emit) Write(runs []*crashresist.RunStats) error {
	for _, o := range e.outs {
		if err := o.writeFile(e, runs); err != nil {
			return fmt.Errorf("-emit %s:%s: %w", o.kind, o.mode, err)
		}
	}
	return nil
}

func (o emitOut) writeFile(e *Emit, runs []*crashresist.RunStats) error {
	f, err := os.Create(o.path)
	if err != nil {
		return err
	}
	if err := o.write(e, f, runs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ErrUsage marks a command-line error that the flag package has already
// reported, with the usage text, on the command's stderr.
var ErrUsage = errors.New("usage error")

// Parse parses args into fs (built with flag.ContinueOnError). A bad flag
// or flag value comes back wrapping ErrUsage; -h comes back as
// flag.ErrHelp.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrUsage, err)
}

// ExitCode maps a command's error to its exit status, the same way for
// every crashresist command: 0 for success and for -h, 2 for a usage
// error, and otherwise 1 after printing "tool: err" to stderr.
func ExitCode(stderr io.Writer, tool string, err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, ErrUsage):
		return 2
	}
	fmt.Fprintf(stderr, "%s: %v\n", tool, err)
	return 1
}
