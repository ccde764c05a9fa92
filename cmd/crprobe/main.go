// Command crprobe runs a §VI proof-of-concept exploit end to end: it boots
// the target, plants a reference-less hidden region (the information-hiding
// defense's secret), builds the discovered memory oracle, and locates the
// region without a single crash:
//
//	crprobe -target ie
//	crprobe -target nginx -size 262144
//	crprobe -target cherokee -requests 100   # timing side channel
//	crprobe -target nginx -format json       # machine-readable result
//	crprobe -target ie -emit stats=stats.txt # run stats
//	crprobe -target ie -emit profile=top.txt # boot/scan virtual-cost split
//
// Each -emit KIND[:MODE]=PATH writes its artifact to its own file; the
// narrative or JSON result is always alone on stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"crashresist"
	"crashresist/cmd/internal/cliflags"
	"crashresist/internal/mem"
	"crashresist/internal/metrics"
	"crashresist/internal/vm"
)

func main() {
	os.Exit(cliflags.ExitCode(os.Stderr, "crprobe", run(os.Args[1:], os.Stdout, os.Stderr)))
}

// probeDoc is the -format=json result document.
type probeDoc struct {
	Schema string `json:"schema"`
	Target string `json:"target"`
	Oracle string `json:"oracle,omitempty"`
	// Locate-style attacks (ie, firefox, nginx).
	Located   bool   `json:"located,omitempty"`
	HiddenVA  uint64 `json:"hidden_va,omitempty"`
	LocatedVA uint64 `json:"located_va,omitempty"`
	Probes    int    `json:"probes,omitempty"`
	Mapped    int    `json:"mapped,omitempty"`
	Crashes   int    `json:"crashes"`
	// Timing side channel (cherokee).
	BaselineTicks uint64 `json:"baseline_ticks,omitempty"`
	MappedTicks   uint64 `json:"mapped_ticks,omitempty"`
	UnmappedTicks uint64 `json:"unmapped_ticks,omitempty"`
	// Stats is the run's observability record.
	Stats *crashresist.RunStats `json:"stats,omitempty"`
}

// probeRun carries one invocation's narrative stream, result document and
// metrics collector through the probe helpers.
type probeRun struct {
	w    io.Writer // narrative output; io.Discard under -format=json
	doc  probeDoc
	col  *metrics.Collector
	prof *crashresist.Profile // nil unless a profile is emitted

	// boot marks the target's counters at the moment probing began, so
	// the profiler can split the long-lived process's exact costs into a
	// boot phase and a scan phase (vm.Stats.Minus).
	boot      vm.Stats
	bootClock uint64
	// scanClock is the scan phase's virtual duration, recorded at harvest
	// for the detectability row.
	scanClock uint64
}

// harvest folds a probed process's VM counters into the run collector.
func (pr *probeRun) harvest(p *vm.Process) {
	pr.col.AddVM(p.Stats)
	pr.scanClock = p.Clock - pr.bootClock
	pr.profilePhases(p)
}

// markBoot records the boundary between the target's boot and the scan.
func (pr *probeRun) markBoot(p *vm.Process) {
	pr.boot = p.Stats
	pr.bootClock = p.Clock
}

// profilePhases charges the probed process's exact costs to the probe
// pipeline: everything up to markBoot under the boot stage, the rest under
// the scan stage, with the oracle (when one was built) as the scan unit.
func (pr *probeRun) profilePhases(p *vm.Process) {
	if pr.prof == nil {
		return
	}
	unit := pr.doc.Oracle
	if unit == "" {
		unit = "env"
	}
	add := func(stage, unit string, k crashresist.ProfileKind, n uint64) {
		pr.prof.Add(crashresist.ProfileStack{
			Pipeline: "probe", Stage: stage, Target: pr.doc.Target, Unit: unit,
		}, k, n)
	}
	add("boot", "env", crashresist.ProfVMInstructions, pr.boot.Instructions)
	add("boot", "env", crashresist.ProfClockTicks, pr.bootClock)
	scan := p.Stats.Minus(pr.boot)
	add("scan", unit, crashresist.ProfVMInstructions, scan.Instructions)
	add("scan", unit, crashresist.ProfClockTicks, p.Clock-pr.bootClock)
}

// run is the whole command behind process setup, returning an error
// (wrapping the crashresist sentinels where one applies) instead of
// exiting, so tests can drive it end to end.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("crprobe", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		an  cliflags.Analysis
		out cliflags.Output
		em  cliflags.Emit
	)
	var (
		target   = fs.String("target", "ie", "ie|firefox|nginx|cherokee")
		size     = fs.Uint64("size", 64*4096, "hidden region size in bytes")
		window   = fs.Uint64("window", 64, "search window in multiples of the region size")
		requests = fs.Int("requests", 50, "cherokee: requests per timing batch")
	)
	an.RegisterScale(fs, "small")
	an.RegisterSeed(fs)
	out.Register(fs)
	em.Register(fs)
	if err := cliflags.Parse(fs, args); err != nil {
		return err
	}
	if err := out.Validate(); err != nil {
		return err
	}

	pr := &probeRun{w: stdout, col: metrics.NewCollector("probe", *target, 1), prof: em.Profile}
	if out.JSON() {
		pr.w = io.Discard
	}
	pr.doc.Schema = crashresist.SchemaV1
	pr.doc.Target = *target

	var err error
	switch *target {
	case "ie", "firefox":
		err = pr.probeBrowser(*target, an.Scale, *size, *window, an.Seed)
	case "nginx":
		err = pr.probeNginx(*size, *window, an.Seed)
	case "cherokee":
		err = pr.probeCherokee(*requests, an.Seed)
	default:
		return fmt.Errorf("%w: unknown -target %q (want ie, firefox, nginx or cherokee)", crashresist.ErrBadParams, *target)
	}
	if err != nil {
		return err
	}

	stats := pr.col.Snapshot()
	if em.Detect != nil && pr.doc.Probes > 0 {
		// The attack campaign as one detectability row: every unmapped
		// probe is a defender-visible fault, over the scan's virtual time.
		em.Detect.AddPrimitive("probe", *target, pr.doc.Oracle,
			uint64(pr.doc.Probes), uint64(pr.doc.Probes-pr.doc.Mapped), pr.scanClock, nil)
	}
	if out.JSON() {
		pr.doc.Stats = stats
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&pr.doc); err != nil {
			return err
		}
	}
	return em.Write([]*crashresist.RunStats{stats})
}

func (pr *probeRun) probeBrowser(name, scale string, size, window uint64, seed int64) error {
	params, err := crashresist.BrowserParamsForScale(scale)
	if err != nil {
		return fmt.Errorf("bad -scale: %w", err)
	}
	var br *crashresist.BrowserTarget
	if name == "ie" {
		br, err = crashresist.IE(params)
	} else {
		br, err = crashresist.Firefox(params)
	}
	if err != nil {
		return err
	}
	env, err := br.NewEnv(seed)
	if err != nil {
		return err
	}
	if err := env.Start(); err != nil {
		return err
	}
	pr.markBoot(env.Proc)
	defer pr.harvest(env.Proc)
	hidden, err := crashresist.PlantHiddenRegion(env.Proc, size)
	if err != nil {
		return err
	}
	fmt.Fprintf(pr.w, "[defense] hidden region planted (base withheld from attacker)\n")

	var o crashresist.Oracle
	if name == "ie" {
		o, err = crashresist.NewIEOracle(env)
	} else {
		o, err = crashresist.NewFirefoxOracle(env)
	}
	if err != nil {
		return err
	}
	return pr.locate(o, env, hidden, size, window)
}

func (pr *probeRun) probeNginx(size, window uint64, seed int64) error {
	srv, err := crashresist.Server("nginx")
	if err != nil {
		return err
	}
	env, err := srv.NewEnv(seed)
	if err != nil {
		return err
	}
	pr.markBoot(env.Proc)
	defer pr.harvest(env.Proc)
	hidden, err := crashresist.PlantHiddenRegion(env.Proc, size)
	if err != nil {
		return err
	}
	fmt.Fprintf(pr.w, "[defense] hidden region planted (base withheld from attacker)\n")
	o := crashresist.NewNginxOracle(env)
	return pr.locateRange(o, hidden, size, window, func() error {
		if !srv.ServiceCheck(env) {
			return fmt.Errorf("nginx no longer serves after probing")
		}
		fmt.Fprintln(pr.w, "[target]  nginx still serves clients after the scan")
		return nil
	})
}

func (pr *probeRun) probeCherokee(requests int, seed int64) error {
	srv, err := crashresist.Server("cherokee")
	if err != nil {
		return err
	}
	env, err := srv.NewEnv(seed)
	if err != nil {
		return err
	}
	pr.markBoot(env.Proc)
	defer pr.harvest(env.Proc)
	o, err := crashresist.NewCherokeeOracle(env, requests)
	if err != nil {
		return err
	}
	fmt.Fprintf(pr.w, "[oracle]  %s calibrated: baseline %d ticks per %d-request batch\n",
		o.Name(), o.Baseline(), o.Requests)

	mod := env.Proc.Modules()[0]
	mapped := mod.VA(srv.Image.BSSStart())
	fast, err := o.MeasureWith(mapped)
	if err != nil {
		return err
	}
	slow, err := o.MeasureWith(0xdead0000)
	if err != nil {
		return err
	}
	fmt.Fprintf(pr.w, "[probe]   mapped   %#x: %d ticks (x%.2f)\n", mapped, fast, float64(fast)/float64(o.Baseline()))
	fmt.Fprintf(pr.w, "[probe]   unmapped %#x: %d ticks (x%.2f)\n", uint64(0xdead0000), slow, float64(slow)/float64(o.Baseline()))
	if env.Proc.Crash != nil {
		return fmt.Errorf("target crashed: %v", env.Proc.Crash)
	}
	fmt.Fprintln(pr.w, "[result]  timing side channel distinguishes mapped from unmapped; zero crashes")
	pr.doc.Oracle = o.Name()
	pr.doc.BaselineTicks = o.Baseline()
	pr.doc.MappedTicks = fast
	pr.doc.UnmappedTicks = slow
	return nil
}

type envLike interface{ Alive() bool }

func (pr *probeRun) locate(o crashresist.Oracle, env envLike, hidden, size, window uint64) error {
	return pr.locateRange(o, hidden, size, window, func() error {
		if !env.Alive() {
			return fmt.Errorf("target died during the scan")
		}
		return nil
	})
}

func (pr *probeRun) locateRange(o crashresist.Oracle, hidden, size, window uint64, liveness func() error) error {
	s := crashresist.NewScanner(o)
	s.Metrics = pr.col
	lo := hidden - window/2*size
	hi := hidden + window/2*size
	if lo < mem.PageSize {
		lo = mem.PageSize
	}
	fmt.Fprintf(pr.w, "[attack]  scanning [%#x, %#x) with stride %#x via %s\n", lo, hi, size, o.Name())
	base, err := s.LocateHiddenRegion(lo, hi, size)
	pr.doc.Oracle = o.Name()
	pr.doc.HiddenVA = hidden
	pr.doc.Probes = s.Stats.Probes
	pr.doc.Mapped = s.Stats.Mapped
	pr.doc.Crashes = s.Stats.Crashes
	if err != nil {
		return fmt.Errorf("scan failed after %d probes: %w", s.Stats.Probes, err)
	}
	pr.doc.LocatedVA = base
	fmt.Fprintf(pr.w, "[attack]  hidden region found at %#x after %d probes (%d mapped hits, %d crashes)\n",
		base, s.Stats.Probes, s.Stats.Mapped, s.Stats.Crashes)
	if base != hidden {
		return fmt.Errorf("located %#x but the defense planted %#x", base, hidden)
	}
	if s.Stats.Crashes != 0 {
		return fmt.Errorf("%d crashes observed — not crash resistant", s.Stats.Crashes)
	}
	pr.doc.Located = true
	fmt.Fprintln(pr.w, "[result]  information hiding bypassed without a single crash")
	return liveness()
}
