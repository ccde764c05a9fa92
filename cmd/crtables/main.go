// Command crtables regenerates every table and figure of the paper's
// evaluation in one run:
//
//	crtables -table all            # everything, paper scale
//	crtables -table 1              # Table I only
//	crtables -table funnel -scale small
//	crtables -table 3 -workers 8   # parallel SEH pipeline
//	crtables -table all -format json > eval.json
//	crtables -table 3 -emit stats=stats.txt              # run stats
//	crtables -table 3 -emit profile=top.txt              # ranked virtual-cost hot spots
//	crtables -table all -emit profile:folded=p.folded    # flamegraph.pl input
//	crtables -table 1 -emit detect:json=defense.json     # detectability report
//
// Tables: 1 (syscall candidates), funnel (§V-B API funnel), 2 (guarded code
// locations), 3 (unique exception filters), prior (§VII-A rediscovery),
// rate (§VII-C fault rates).
//
// Output is deterministic: for a fixed -seed and -scale, every -workers
// value produces byte-identical tables (see the golden regression tests).
// Each -emit artifact goes to its own file, so the tables are alone on
// stdout whatever is emitted.
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
	os.Exit(cliflags.ExitCode(os.Stderr, "crtables", run(os.Args[1:], os.Stdout, os.Stderr)))
}

// run is the whole command behind process setup: it parses args, writes
// the tables to stdout and then every -emit artifact to its file.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("crtables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		an  cliflags.Analysis
		out cliflags.Output
		em  cliflags.Emit
	)
	table := fs.String("table", "all", "which artifact: 1, funnel, 2, 3, prior, rate, all")
	an.RegisterScale(fs, "paper")
	an.RegisterSeed(fs)
	an.RegisterPool(fs)
	an.RegisterChaos(fs)
	out.Register(fs)
	em.Register(fs)
	if err := cliflags.Parse(fs, args); err != nil {
		return err
	}

	req := an.Request(stderr, "crtables")
	req.Profile, req.Detect = em.Profile, em.Detect
	runs, err := emit(stdout, config{table: *table, format: out.Format, req: req})
	if err != nil {
		return err
	}
	return em.Write(runs)
}

// config selects the artifacts and rendering of one emit call, and the
// base request every artifact's run starts from: scale, seed, workers,
// chaos seed, cache and observers.
type config struct {
	table  string
	format string
	req    crashresist.Request
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

// emit computes the selected artifacts, writes them to w and returns the
// stats of every run behind them. It is the whole command behind the flag
// parsing, so tests can snapshot output byte-for-byte.
func emit(w io.Writer, cfg config) ([]*crashresist.RunStats, error) {
	params, err := crashresist.BrowserParamsForScale(cfg.req.Scale)
	if err != nil {
		return nil, fmt.Errorf("bad -scale: %w", err)
	}

	switch cfg.table {
	case "all", "1", "funnel", "2", "3", "prior", "rate":
	default:
		return nil, fmt.Errorf("%w %q (want 1, funnel, 2, 3, prior, rate, or all)", crashresist.ErrUnknownTable, cfg.table)
	}

	switch cfg.format {
	case "text", "json":
	default:
		return nil, fmt.Errorf("%w: unknown -format %q (want text or json)", crashresist.ErrBadParams, cfg.format)
	}

	want := func(name string) bool { return cfg.table == "all" || cfg.table == name }
	ctx := context.Background()
	// Every artifact runs on the base request; each run attaches its own
	// target.
	analyzeBrowser := func(pipeline string, br *crashresist.BrowserTarget) (*crashresist.Result, error) {
		req := cfg.req
		req.Pipeline, req.Browser = pipeline, br
		return crashresist.Run(ctx, req)
	}

	doc := document{Schema: crashresist.SchemaV1}
	var runs []*crashresist.RunStats

	if want("1") {
		servers, err := crashresist.Servers()
		if err != nil {
			return nil, err
		}
		// At generated scales Table I fans out over the synthesized fleet
		// too; small/paper keep the exact five-server goldens.
		if cfg.req.Scale == crashresist.ScaleLarge || cfg.req.Scale == crashresist.ScaleMega {
			n, err := crashresist.GenServerCount(cfg.req.Scale)
			if err != nil {
				return nil, err
			}
			gen, err := crashresist.GenServers(crashresist.DefaultGenSeed, n)
			if err != nil {
				return nil, err
			}
			servers = append(servers, gen...)
		}
		req := cfg.req
		req.Servers = servers
		res, err := crashresist.Run(ctx, req)
		if err != nil {
			return nil, err
		}
		doc.TableI = res.Servers
		runs = append(runs, res.RunStats()...)
	}
	if want("funnel") {
		br, err := crashresist.IE(params)
		if err != nil {
			return nil, err
		}
		res, err := analyzeBrowser(crashresist.PipelineAPI, br)
		if err != nil {
			return nil, err
		}
		doc.Funnel = res.Funnel
		runs = append(runs, res.RunStats()...)
	}
	if want("2") || want("3") {
		br, err := crashresist.IE(params)
		if err != nil {
			return nil, err
		}
		res, err := analyzeBrowser(crashresist.PipelineSEH, br)
		if err != nil {
			return nil, err
		}
		doc.SEH = res.SEH
		runs = append(runs, res.RunStats()...)
	}
	if want("prior") {
		ie, err := crashresist.IE(params)
		if err != nil {
			return nil, err
		}
		ieRes, err := analyzeBrowser(crashresist.PipelineSEH, ie)
		if err != nil {
			return nil, err
		}
		ff, err := crashresist.Firefox(params)
		if err != nil {
			return nil, err
		}
		ffRes, err := analyzeBrowser(crashresist.PipelineSEH, ff)
		if err != nil {
			return nil, err
		}
		doc.Prior = &priorDoc{IE: crashresist.PriorWork(ieRes.SEH), Firefox: crashresist.PriorWork(ffRes.SEH)}
		runs = append(runs, ieRes.SEH.Stats, ffRes.SEH.Stats)
	}
	if want("rate") {
		rate, err := computeRates(params, cfg.req.Seed)
		if err != nil {
			return nil, err
		}
		doc.Rate = rate
	}

	if cfg.format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return runs, enc.Encode(&doc)
	}
	return runs, renderText(w, &doc, cfg.table)
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
