// Command crdiscover runs one discovery pipeline against one target and
// prints the full report:
//
//	crdiscover -target nginx                 # syscall pipeline
//	crdiscover -target ie -pipeline api      # §V-B funnel
//	crdiscover -target firefox -pipeline seh # Tables II/III inventory
//	crdiscover -target nginx -format json    # machine-readable report
//	crdiscover -target nginx -cache-dir ~/.cache/crashresist
//	crdiscover -target ie -emit stats=stats.txt          # run stats
//	crdiscover -target ie -emit trace=t.json             # Chrome trace-event export
//	crdiscover -target ie -emit profile=top.txt          # ranked virtual-cost hot spots
//	crdiscover -target ie -emit profile:folded=p.folded  # flamegraph.pl input
//	crdiscover -target nginx -emit detect=detect.txt     # detectability report
//
// Each -emit writes its artifact to its own file; the report is always
// alone on stdout.
//
// For live /metrics, /profile and /trace.json endpoints, run the same
// analysis under `crmon -target X -runs 1`.
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
	os.Exit(cliflags.ExitCode(os.Stderr, "crdiscover", run(os.Args[1:], os.Stdout, os.Stderr)))
}

// run is the whole command behind process setup: it parses args with its
// own FlagSet and writes the report to stdout and diagnostics to stderr,
// so tests can drive it end to end without exec'ing the binary.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("crdiscover", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		an  cliflags.Analysis
		out cliflags.Output
		em  cliflags.Emit
	)
	var (
		target   = fs.String("target", "nginx", "nginx|cherokee|lighttpd|memcached|postgresql|ie|firefox|all|gen|gen-<i>")
		pipeline = fs.String("pipeline", "", "syscall|api|seh (default: syscall for servers, seh for browsers)")
	)
	an.RegisterScale(fs, "small")
	an.RegisterSeed(fs)
	an.RegisterPool(fs)
	an.RegisterChaos(fs)
	out.Register(fs)
	em.Register(fs)
	if err := cliflags.Parse(fs, args); err != nil {
		return err
	}
	if err := out.Validate(); err != nil {
		return err
	}

	req := an.Request(stderr, "crdiscover")
	req.Pipeline, req.Target = *pipeline, *target
	req.Profile, req.Detect = em.Profile, em.Detect
	res, err := crashresist.Run(context.Background(), req)
	if err != nil {
		return err
	}
	switch {
	case out.JSON():
		if err := printJSON(stdout, res.Report()); err != nil {
			return err
		}
	case res.Syscall != nil:
		printServerReport(stdout, res.Syscall)
	case res.Servers != nil:
		for i, rep := range res.Servers {
			if i > 0 {
				fmt.Fprintln(stdout)
			}
			printServerReport(stdout, rep)
		}
	case res.Funnel != nil:
		fmt.Fprintln(stdout, crashresist.FormatFunnel(res.Funnel))
		printDegraded(stdout, res.Funnel.Degraded)
	case res.SEH != nil:
		printSEHReport(stdout, res.SEH)
	}
	return em.Write(res.RunStats())
}

// printServerReport renders one syscall-pipeline report as text.
func printServerReport(stdout io.Writer, rep *crashresist.SyscallReport) {
	fmt.Fprintf(stdout, "syscall pipeline report for %s\n\n", rep.Server)
	fmt.Fprintf(stdout, "%-12s %-18s\n", "syscall", "status")
	for _, sc := range crashresist.TableISyscalls() {
		fmt.Fprintf(stdout, "%-12s %-18s\n", sc, rep.Status[sc])
	}
	fmt.Fprintf(stdout, "\nvalidated candidates (%d):\n", len(rep.Findings))
	for _, f := range rep.Findings {
		fmt.Fprintf(stdout, "  %-12s arg%d prov=%#x taint=%#x seen=%d → %s\n     %s\n",
			f.Syscall, f.ArgIndex, f.Provenance, f.TaintMask, f.Count, f.Status, f.Detail)
	}
	fmt.Fprintf(stdout, "\nusable crash-resistant primitives: %v\n", rep.Usable())
	printDegraded(stdout, rep.Degraded)
}

// printSEHReport renders the Tables II/III inventory as text.
func printSEHReport(stdout io.Writer, rep *crashresist.SEHReport) {
	fmt.Fprintln(stdout, crashresist.FormatTableII(rep, crashresist.NamedDLLs()))
	fmt.Fprintln(stdout, crashresist.FormatTableIII(rep, crashresist.NamedDLLs()))
	fmt.Fprintf(stdout, "on-path candidates (%d):\n", len(rep.Candidates))
	for _, c := range rep.Candidates {
		kind := "filter"
		if c.CatchAll {
			kind = "catch-all"
		}
		fmt.Fprintf(stdout, "  %-16s scope %-4d %-24s %-9s hits %d\n",
			c.Module, c.Scope, c.FuncName, kind, c.Hits)
	}
	if len(rep.VEHFindings) > 0 {
		fmt.Fprintf(stdout, "\nvectored-handler registrations (static scan, §VII-A extension):\n")
		for _, f := range rep.VEHFindings {
			fmt.Fprintf(stdout, "  %s\n", f)
		}
	}
	pw := crashresist.PriorWork(rep)
	fmt.Fprintf(stdout, "\nprior work: IE catch-all=%v, post-update-manual=%v, VEH-missed=%v, VEH-found-by-extension=%v\n",
		pw.IECatchAllFound, pw.IEPostUpdateNeedsManual, pw.FirefoxVEHMissed, pw.FirefoxVEHFoundByExtension)
	printDegraded(stdout, rep.Degraded)
}

// printDegraded lists jobs dropped by graceful degradation. Prints nothing
// for a clean run, so injection-off output is unchanged.
func printDegraded(w io.Writer, degraded []crashresist.Degraded) {
	if len(degraded) == 0 {
		return
	}
	fmt.Fprintf(w, "\ndegraded jobs (%d):\n", len(degraded))
	for _, d := range degraded {
		fmt.Fprintf(w, "  %-10s %-24s attempts=%d  %s\n", d.Stage, d.Key, d.Attempts, d.Err)
	}
}

// printJSON writes an indented JSON report to w.
func printJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
