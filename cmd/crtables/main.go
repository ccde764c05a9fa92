// Command crtables regenerates every table and figure of the paper's
// evaluation in one run:
//
//	crtables -table all            # everything, paper scale
//	crtables -table 1              # Table I only
//	crtables -table funnel -scale small
//	crtables -table 3 -workers 8   # parallel SEH pipeline
//	crtables -table all -format json > eval.json
//	crtables -table 3 -metrics     # run stats on stderr
//
// Tables: 1 (syscall candidates), funnel (§V-B API funnel), 2 (guarded code
// locations), 3 (unique exception filters), prior (§VII-A rediscovery),
// rate (§VII-C fault rates).
//
// Output is deterministic: for a fixed -seed and -scale, every -workers
// value produces byte-identical tables (see the golden regression tests).
// Run metrics (-metrics) go to a separate stream precisely so the table
// bytes stay stable.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"crashresist"
	"crashresist/cmd/internal/cliflags"
)

func main() {
	var (
		an  cliflags.Analysis
		out cliflags.Output
		prf cliflags.Profiling
		det cliflags.Detection
	)
	table := flag.String("table", "all", "which artifact: 1, funnel, 2, 3, prior, rate, all")
	an.RegisterScale(flag.CommandLine, "paper")
	an.RegisterSeed(flag.CommandLine)
	an.RegisterPool(flag.CommandLine)
	an.RegisterChaos(flag.CommandLine)
	out.Register(flag.CommandLine)
	prf.Register(flag.CommandLine)
	det.Register(flag.CommandLine)
	flag.Parse()

	cfg := config{
		table:       *table,
		scale:       an.Scale,
		format:      out.Format,
		seed:        an.Seed,
		workers:     an.Workers,
		chaosSeed:   an.ChaosSeed,
		profile:     prf.Profile(),
		profileMode: prf.Mode,
		detect:      det.Detect(),
		detectMode:  det.Mode,
	}
	if out.Metrics {
		cfg.metricsW = os.Stderr
	}
	cfg.cache = openCacheOrWarn(os.Stderr, an.CacheDir)
	if an.Trace != "" {
		f, err := os.Create(an.Trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crtables:", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.traceW = f
	}
	if err := emit(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "crtables:", err)
		os.Exit(1)
	}
}

// config selects the artifacts, scale and rendering of one emit call.
type config struct {
	table   string
	scale   string
	format  string
	seed    int64
	workers int
	// chaosSeed, when non-zero, runs every pipeline under the default
	// fault plan seeded with it, plus a retry budget; degraded jobs are
	// rendered after the affected artifact.
	chaosSeed int64
	// metricsW receives each run's stats as text; nil suppresses them.
	// Metrics never go to the artifact writer, keeping goldens stable.
	metricsW io.Writer
	// traceW receives the runs' span trees as one Chrome trace-event JSON
	// document; nil suppresses the export. Like metricsW it never touches
	// the artifact writer.
	traceW io.Writer
	// cache, when non-nil, persists per-unit analysis results across
	// invocations. A missing or broken cache only costs recomputation;
	// it never changes the artifact bytes.
	cache *crashresist.AnalysisCache
	// profile, when non-nil, receives every run's exact virtual costs.
	// Attaching a profile never touches the artifact writer — the golden
	// tests pin that tables render byte-identically with profiling on.
	profile *crashresist.Profile
	// profileMode, when non-empty (top, folded or json), writes the
	// accumulated profile to the artifact writer INSTEAD of the tables,
	// so `crtables -profile=folded | flamegraph.pl` pipes cleanly.
	profileMode string
	// detect, when non-nil, watches every run with the defense detection
	// engine. Like profile it never touches the artifact bytes — the
	// golden tests pin that tables render byte-identically with it on.
	detect *crashresist.Detect
	// detectMode, when non-empty (top or json), appends the accumulated
	// detectability report to the artifact writer after the tables.
	detectMode string
}

// openCacheOrWarn opens the persistent analysis cache at dir. An empty dir
// means caching is off. Failure to open is a warning, not an error: the
// command degrades to cold computation and still exits 0.
func openCacheOrWarn(errW io.Writer, dir string) *crashresist.AnalysisCache {
	a := cliflags.Analysis{CacheDir: dir}
	return a.OpenCache(errW, "crtables")
}

// document is the -format=json artifact bundle. Only requested artifacts
// are present.
type document struct {
	Schema string                       `json:"schema"`
	TableI []*crashresist.SyscallReport `json:"table1,omitempty"`
	Funnel *crashresist.APIFunnelReport `json:"funnel,omitempty"`
	SEH    *crashresist.SEHReport       `json:"seh,omitempty"`
	Prior  *priorDoc                    `json:"prior,omitempty"`
	Rate   *rateDoc                     `json:"rate,omitempty"`
}

// priorDoc bundles the §VII-A rediscovery checks.
type priorDoc struct {
	IE      crashresist.PriorWorkFindings `json:"ie"`
	Firefox crashresist.PriorWorkFindings `json:"firefox"`
}

// rateDoc is the §VII-C fault-rate experiment result.
type rateDoc struct {
	BrowsePeak    uint64 `json:"browse_peak"`
	AsmPeak       uint64 `json:"asm_peak"`
	Threshold     uint64 `json:"threshold"`
	ScanPeak      uint64 `json:"scan_peak"`
	ScanDetected  bool   `json:"scan_detected"`
	StealthProbes uint64 `json:"stealth_probes"`
	StealthTicks  uint64 `json:"stealth_ticks"`
}

// emit computes the selected artifacts and writes them to w. It is the
// whole command behind the flag parsing, so tests can snapshot output
// byte-for-byte.
func emit(w io.Writer, cfg config) error {
	params, err := crashresist.BrowserParamsForScale(cfg.scale)
	if err != nil {
		return fmt.Errorf("bad -scale: %w", err)
	}

	switch cfg.table {
	case "all", "1", "funnel", "2", "3", "prior", "rate":
	default:
		return fmt.Errorf("%w %q (want 1, funnel, 2, 3, prior, rate, or all)", crashresist.ErrUnknownTable, cfg.table)
	}

	switch cfg.format {
	case "text", "json":
	default:
		return fmt.Errorf("%w: unknown -format %q (want text or json)", crashresist.ErrBadParams, cfg.format)
	}

	switch cfg.profileMode {
	case "", "top", "folded", "json":
	default:
		return fmt.Errorf("%w: unknown -profile %q (want top, folded or json)", crashresist.ErrBadParams, cfg.profileMode)
	}
	if cfg.profileMode != "" && cfg.profile == nil {
		cfg.profile = crashresist.NewProfile()
	}

	switch cfg.detectMode {
	case "", "top", "json":
	default:
		return fmt.Errorf("%w: unknown -detect %q (want top or json)", crashresist.ErrBadParams, cfg.detectMode)
	}
	if cfg.detectMode != "" && cfg.detect == nil {
		cfg.detect = crashresist.NewDetect()
	}

	want := func(name string) bool { return cfg.table == "all" || cfg.table == name }
	// Every artifact runs on the same settings; each run attaches its own
	// target.
	base := crashresist.Request{
		Seed:      cfg.seed,
		Workers:   cfg.workers,
		ChaosSeed: cfg.chaosSeed,
		Cache:     cfg.cache,
		Profile:   cfg.profile,
		Detect:    cfg.detect,
	}
	ctx := context.Background()
	analyzeBrowser := func(pipeline string, br *crashresist.BrowserTarget) (*crashresist.Result, error) {
		req := base
		req.Pipeline, req.Browser = pipeline, br
		return crashresist.Run(ctx, req)
	}

	doc := document{Schema: crashresist.SchemaV1}
	var runs []*crashresist.RunStats

	if want("1") {
		servers, err := crashresist.Servers()
		if err != nil {
			return err
		}
		// At generated scales Table I fans out over the synthesized fleet
		// too; small/paper keep the exact five-server goldens.
		if cfg.scale == crashresist.ScaleLarge || cfg.scale == crashresist.ScaleMega {
			n, err := crashresist.GenServerCount(cfg.scale)
			if err != nil {
				return err
			}
			gen, err := crashresist.GenServers(crashresist.DefaultGenSeed, n)
			if err != nil {
				return err
			}
			servers = append(servers, gen...)
		}
		req := base
		req.Servers = servers
		res, err := crashresist.Run(ctx, req)
		if err != nil {
			return err
		}
		doc.TableI = res.Servers
		runs = append(runs, res.RunStats()...)
	}
	if want("funnel") {
		br, err := crashresist.IE(params)
		if err != nil {
			return err
		}
		res, err := analyzeBrowser(crashresist.PipelineAPI, br)
		if err != nil {
			return err
		}
		doc.Funnel = res.Funnel
		runs = append(runs, res.RunStats()...)
	}
	if want("2") || want("3") {
		br, err := crashresist.IE(params)
		if err != nil {
			return err
		}
		res, err := analyzeBrowser(crashresist.PipelineSEH, br)
		if err != nil {
			return err
		}
		doc.SEH = res.SEH
		runs = append(runs, res.RunStats()...)
	}
	if want("prior") {
		ie, err := crashresist.IE(params)
		if err != nil {
			return err
		}
		ieRes, err := analyzeBrowser(crashresist.PipelineSEH, ie)
		if err != nil {
			return err
		}
		ff, err := crashresist.Firefox(params)
		if err != nil {
			return err
		}
		ffRes, err := analyzeBrowser(crashresist.PipelineSEH, ff)
		if err != nil {
			return err
		}
		doc.Prior = &priorDoc{IE: crashresist.PriorWork(ieRes.SEH), Firefox: crashresist.PriorWork(ffRes.SEH)}
		runs = append(runs, ieRes.SEH.Stats, ffRes.SEH.Stats)
	}
	if want("rate") {
		rate, err := computeRates(params, cfg.seed)
		if err != nil {
			return err
		}
		doc.Rate = rate
	}

	if cfg.metricsW != nil {
		for _, st := range runs {
			fmt.Fprint(cfg.metricsW, st.Format())
		}
	}
	if cfg.traceW != nil {
		if err := crashresist.WriteChromeTrace(cfg.traceW, runs...); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}

	if cfg.profileMode != "" {
		// The profile replaces the artifact on stdout; the tables were
		// still computed in full, so the profile covers every run above.
		return writeProfile(w, cfg.profile, cfg.profileMode)
	}
	if cfg.format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&doc); err != nil {
			return err
		}
	} else if err := renderText(w, &doc, cfg.table); err != nil {
		return err
	}
	if cfg.detectMode != "" {
		// The detectability report appends after the tables; the table
		// bytes above are unchanged, so `crtables -detect=top` shows the
		// artifacts and their defender's view in one pass.
		return writeDetect(w, cfg.detect, cfg.detectMode)
	}
	return nil
}

// writeDetect renders the accumulated detectability report.
func writeDetect(w io.Writer, d *crashresist.Detect, mode string) error {
	rep := d.Snapshot()
	if mode == "top" {
		return rep.WriteTop(w)
	}
	return rep.WriteJSON(w)
}

// writeProfile renders the accumulated cost profile in the selected mode.
func writeProfile(w io.Writer, p *crashresist.Profile, mode string) error {
	snap := p.Snapshot()
	switch mode {
	case "top":
		return snap.WriteTop(w, 0)
	case "folded":
		return snap.WriteFolded(w)
	default:
		return snap.WriteJSON(w)
	}
}

// renderText writes the classic table output, byte-identical to the
// pre-observability command.
func renderText(w io.Writer, doc *document, table string) error {
	want := func(name string) bool { return table == "all" || table == name }

	if doc.TableI != nil {
		fmt.Fprintln(w, crashresist.FormatTableI(doc.TableI))
		for _, rep := range doc.TableI {
			fmt.Fprintf(w, "%s usable: %v\n", rep.Server, rep.Usable())
		}
		for _, rep := range doc.TableI {
			renderDegraded(w, "table1/"+rep.Server, rep.Degraded)
		}
		fmt.Fprintln(w)
	}
	if doc.Funnel != nil {
		fmt.Fprintln(w, crashresist.FormatFunnel(doc.Funnel))
		renderDegraded(w, "funnel", doc.Funnel.Degraded)
	}
	if doc.SEH != nil {
		if want("2") {
			fmt.Fprintln(w, crashresist.FormatTableII(doc.SEH, crashresist.NamedDLLs()))
		}
		if want("3") {
			fmt.Fprintln(w, crashresist.FormatTableIII(doc.SEH, crashresist.NamedDLLs()))
		}
		renderDegraded(w, "seh", doc.SEH.Degraded)
	}
	if doc.Prior != nil {
		fmt.Fprintln(w, "§VII-A prior-primitive rediscovery")
		fmt.Fprintf(w, "  IE MUTX::Enter catch-all found automatically:   %v\n", doc.Prior.IE.IECatchAllFound)
		fmt.Fprintf(w, "  IE post-update filter needs manual vetting:     %v\n", doc.Prior.IE.IEPostUpdateNeedsManual)
		fmt.Fprintf(w, "  Firefox runtime VEH invisible to scope tables:  %v\n", doc.Prior.Firefox.FirefoxVEHMissed)
		fmt.Fprintf(w, "  ... recovered by the registration-scan extension: %v\n", doc.Prior.Firefox.FirefoxVEHFoundByExtension)
		fmt.Fprintln(w)
	}
	if doc.Rate != nil {
		fmt.Fprintln(w, "§VII-C access-violation rates (peak events per window)")
		fmt.Fprintf(w, "  normal browsing: %d\n", doc.Rate.BrowsePeak)
		fmt.Fprintf(w, "  asm.js stress:   %d (bursts, below threshold %d)\n", doc.Rate.AsmPeak, doc.Rate.Threshold)
		fmt.Fprintf(w, "  scanning attack: %d (detected: %v)\n", doc.Rate.ScanPeak, doc.Rate.ScanDetected)
		// The closing argument: a detector-evading scan becomes impractical.
		fmt.Fprintf(w, "  sub-threshold full-arena scan: %d probes ≥ %.1f virtual hours\n",
			doc.Rate.StealthProbes, float64(doc.Rate.StealthTicks)/(3600*1_000_000))
		fmt.Fprintln(w)
	}
	return nil
}

// renderDegraded lists an artifact's dropped jobs. Clean runs print
// nothing, keeping the injection-off goldens byte-identical.
func renderDegraded(w io.Writer, artifact string, degraded []crashresist.Degraded) {
	if len(degraded) == 0 {
		return
	}
	fmt.Fprintf(w, "%s degraded jobs (%d):\n", artifact, len(degraded))
	for _, d := range degraded {
		fmt.Fprintf(w, "  %-10s %-24s attempts=%d  %s\n", d.Stage, d.Key, d.Attempts, d.Err)
	}
}

// computeRates runs the §VII-C fault-rate experiment on Firefox.
func computeRates(params crashresist.BrowserParams, seed int64) (*rateDoc, error) {
	br, err := crashresist.Firefox(params)
	if err != nil {
		return nil, err
	}
	env, err := br.NewEnv(seed)
	if err != nil {
		return nil, err
	}
	rec := crashresist.NewExceptionRecorder()
	rec.Attach(env.Proc)
	if err := env.Start(); err != nil {
		return nil, err
	}
	det := crashresist.DefaultRateDetector()
	out := &rateDoc{Threshold: det.Threshold}

	if err := env.Browse(); err != nil {
		return nil, err
	}
	out.BrowsePeak = det.Peak(rec.Exceptions())

	rec.ResetExceptions()
	if _, err := env.Call("xul.dll", "asmjs_run", 20); err != nil {
		return nil, err
	}
	out.AsmPeak = det.Peak(rec.Exceptions())

	rec.ResetExceptions()
	o, err := crashresist.NewFirefoxOracle(env)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 500; i++ {
		if _, err := o.Probe(0xdead0000 + uint64(i)*0x1000); err != nil {
			return nil, err
		}
	}
	out.ScanPeak = det.Peak(rec.Exceptions())
	out.ScanDetected = det.Detect(rec.Exceptions())

	out.StealthProbes = crashresist.ProbesToCover(1<<43, 8<<20)
	out.StealthTicks = det.StealthScanTicks(out.StealthProbes)
	return out, nil
}
