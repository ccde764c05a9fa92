// Command perfbench is the repository's end-to-end benchmark. It drives
// the paper's evaluation (Table I, the §V-B API funnel, Tables II/III) and
// the multi-tenant job service through their public surfaces, checks every
// output, and prints one JSON result line:
//
//	perfbench -workload table1|funnel|seh|service -seed N -seconds S -trace 0|1
//
// With -trace 0 it times operations with no tracing attached and prints
// the end-to-end metrics. With -trace 1 it runs the same operations with
// the benchmark's own tracer and direct layer calls, and prints the
// per-layer metrics. README.md explains the workloads and metrics; run.sh
// builds and runs the benchmark from a checkout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config carries the command line into a run.
type config struct {
	workload string
	seed     int64
	budget   time.Duration
	// root is the checkout root: goldens are read below it and scratch
	// state (service caches) is written below it.
	root string
}

// scratchDir is where a run keeps its disposable files, inside the
// checkout's build directory.
func (c config) scratchDir() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(c.root, dir)
	}
	return filepath.Join(dir, "perfbench-scratch")
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 50, "measurement budget in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&cfg.root, "root", ".", "checkout root holding the goldens")
	flag.Parse()
	cfg.budget = time.Duration(seconds) * time.Second

	if err := run(cfg, trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, traced bool) error {
	if !slices.Contains(workloadNames, cfg.workload) {
		return fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	if cfg.budget <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.scratchDir(), 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.scratchDir())

	w, err := newWorkload(cfg)
	if err != nil {
		return err
	}

	ctx := context.Background()
	var res result
	if traced {
		res, err = tracedRun(ctx, cfg, w)
	} else {
		res, err = timedRun(ctx, cfg, w)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printInfo writes one labelled JSON line ahead of the result: the run's
// raw samples and host record, for reading spreads beside steal.
func printInfo(label string, v any) {
	data, err := json.Marshal(map[string]any{label: v})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: info:", err)
		return
	}
	fmt.Println(string(data))
}

// opSample is one timed operation, its times raw.
type opSample struct {
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	StealS float64 `json:"steal_s"`
	// RunDelayS is the time the process's threads waited on the guest's
	// run queues. Other tasks in the guest raise it, so it is recorded to
	// explain wall times, but no metric uses it: on a quiet guest it is
	// still 6–15% of table1's CPU time, which makes much of it the
	// program's own.
	RunDelayS float64 `json:"run_delay_s"`
	// StealFreeWallS is WallS without the steal that fell inside it
	// (stealFreeWall).
	StealFreeWallS float64 `json:"steal_free_wall_s"`
	AllocMB        float64 `json:"alloc_mb"`
	// RSSMB is the peak resident set while the operation ran, or over
	// the whole process so far where the peak cannot be reset.
	RSSMB float64 `json:"rss_peak_mb"`
	// JobP50S and JobP90S are the batch's job latency percentiles
	// (service only).
	JobP50S float64 `json:"job_p50_s,omitempty"`
	JobP90S float64 `json:"job_p90_s,omitempty"`
	// Load1 is the guest's one-minute load average when it ended.
	Load1 float64 `json:"load1"`
}

// timeOp runs fn after a full GC that returns freed memory to the OS, so
// every operation starts from the same heap, and measures its wall time,
// process CPU time, host steal, run-queue delay, allocation and peak
// resident set.
func timeOp(fn func() error) (opSample, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	// The steal and delay reads allocate, so they sit outside the
	// allocation window.
	steal0, delay0 := stealNow(), runDelayNow()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	steal1, delay1 := stealNow(), runDelayNow()
	s := opSample{
		WallS:  wall.Seconds(),
		CPUS:   (cpu1 - cpu0).Seconds(),
		StealS: steal1 - steal0,
		// A thread that exited took its delay out of the sum.
		RunDelayS: max(delay1-delay0, 0),
		AllocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		RSSMB:     peakRSSMB(),
		Load1:     loadAvg1(),
	}
	s.StealFreeWallS = stealFreeWall(s.WallS, s.CPUS, s.StealS, runtime.NumCPU())
	return s, err
}

// stealFreeWall is the wall time an operation would have taken had the
// hypervisor stolen none of its vCPU time. Steal is time a vCPU was
// runnable but ran another tenant; CPU time excludes it, wall time does
// not. steal is summed over the guest's nproc vCPUs, so steal ÷ nproc is
// the share of every vCPU's time stolen during the operation, and with
// steal spread evenly over vCPUs and time, every thread ran that much
// less of the wall time. The operation cannot have taken less than its
// CPU time spread over every vCPU, which bounds the result where steal,
// read in 10 ms ticks, rounds up. Without steal it is the wall time.
func stealFreeWall(wall, cpu, steal float64, nproc int) float64 {
	if steal <= 0 {
		return wall
	}
	n := float64(nproc)
	return max(wall-steal/n, cpu/n)
}

// buildTimed builds the workload's targets from scratch setupReps times,
// releases all but the last build, and returns it with every build's
// set-up time, raw. Each build starts after a full GC that returns freed
// memory to the OS, so that, as in a fresh process, it faults in every
// page it uses. After a GC alone, how many pages a build faulted in
// depended on how far the background scavenger had got: table1's 0.3 ms
// build then moved 1.9× from one moment to the next, against 1.3× from a
// returned heap. Runs call it before every operation, so the set-up
// samples spread over the run as the operations do, and the host's speed
// while they ran is the one the speedometer measures.
func buildTimed(w workload) (env any, setups []float64, err error) {
	for i := 0; i < w.setupReps(); i++ {
		if env != nil {
			w.release(env)
		}
		debug.FreeOSMemory()
		var d time.Duration
		if env, d, err = w.build(); err != nil {
			return nil, nil, fmt.Errorf("build: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	return env, setups, nil
}

// minOps is the fewest operations a run measures, whatever its budget,
// so each reported median has at least three samples.
const minOps = 3

// timedRun measures operations with no tracing attached until the budget
// is spent and reports the end-to-end metrics. The timed metrics are
// scaled to the tuning host's quiet speed by the reference loop timed at
// the start and after every operation (calib.go).
func timedRun(ctx context.Context, cfg config, w workload) (result, error) {
	start := time.Now()
	steal0 := stealNow()
	var sp speedometer
	sp.sample()
	var (
		setups            []float64 // every build's raw set-up time
		ops               []opSample
		opWalls, opCPUs   []float64
		opAllocs, opRSS   []float64
		jobs              []float64 // every verified job's latency
		attempted, failed int
		lastIter          time.Duration
	)
	for i := 0; i < minOps || time.Since(start)+lastIter <= cfg.budget; i++ {
		iter := time.Now()
		env, d, err := buildTimed(w)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d...)
		var out any
		s, err := timeOp(func() error {
			var err error
			out, err = w.run(ctx, env, nil)
			return err
		})
		if err != nil {
			w.release(env)
			return result{}, fmt.Errorf("operation %d: %w", i, err)
		}
		sp.sample()
		v := w.check(ctx, env, out)
		w.release(env)
		attempted += v.attempted
		failed += v.failed
		if len(v.jobLatency) > 0 {
			jobs = append(jobs, v.jobLatency...)
			s.JobP50S = median(v.jobLatency)
			s.JobP90S, _ = percentile(v.jobLatency, 90)
		}
		ops = append(ops, s)
		opWalls = append(opWalls, s.StealFreeWallS)
		opCPUs = append(opCPUs, s.CPUS)
		opAllocs = append(opAllocs, s.AllocMB)
		opRSS = append(opRSS, s.RSSMB)
		lastIter = time.Since(iter)
	}
	if len(jobs) == 0 {
		// A pipeline operation is one job: one Run call a client waits on.
		jobs = opWalls
	}
	// The run's jobs are pooled: one batch's tail moves with how its
	// slow jobs happen to interleave, and the pooled quantile averages
	// that over every batch. Too few jobs for a tail with ten samples
	// beyond it fall back to the median.
	p50 := median(jobs)
	p90, ok := jobP90(jobs)
	if !ok {
		p90 = p50
	}
	scale := sp.scale()

	printInfo("run", map[string]any{
		"workload":        cfg.workload,
		"seed":            cfg.seed,
		"ops":             ops,
		"wall_spread":     spread(opWalls),
		"cpu_spread":      spread(opCPUs),
		"setup_samples_s": setups,
		"ref_samples_s":   sp.samples,
		"scale":           scale,
		"host":            newHostInfo(stealNow()-steal0, median(sp.samples)),
	})
	if mix := w.mix(); mix != nil {
		printInfo("mix", mix)
	}

	okShare := 0.0
	if attempted > 0 {
		okShare = float64(attempted-failed) / float64(attempted)
	}
	// rss_peak_mb is the least peak: peaks above it come and go with
	// timing (README.md).
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":     {median(setups) * scale, "s"},
			"wall_s":      {median(opWalls) * scale, "s"},
			"cpu_s":       {median(opCPUs) * scale, "s"},
			"alloc_mb":    {median(opAllocs), "MB"},
			"rss_peak_mb": {slices.Min(opRSS), "MB"},
			"ok_share":    {okShare, "share"},
			"job_p50_s":   {p50 * scale, "s"},
			"job_p90_s":   {p90 * scale, "s"},
		},
	}, nil
}
