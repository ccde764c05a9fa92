package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"crashresist"
	"crashresist/internal/cas"
	"crashresist/internal/fuzz"
	"crashresist/internal/isa"
	"crashresist/internal/kernel"
	"crashresist/internal/mem"
	"crashresist/internal/seh"
	"crashresist/internal/sym"
	"crashresist/internal/trace"
	"crashresist/internal/vm"
	"crashresist/internal/winapi"
)

// layerDef is one per-layer metric: its unit, the end-to-end metric it
// should move, and, for display, the workloads it moves on (in
// parentheses those where the prediction is no change). measuredOn lists
// the workloads whose traced run measures it, nil meaning every one; a
// traced run fails if one of those lacks the metric, and reports 0 on the
// others.
type layerDef struct {
	name, unit, moves, on string
	measuredOn            []string
}

// pipelines are the workloads whose operation is one crashresist.Run.
var pipelines = []string{"table1", "funnel", "seh"}

var layerDefs = []layerDef{
	{"targets.build_s", "s", "setup_s", "all", nil},
	{"discover.taint_s", "s", "wall_s cpu_s", "table1", []string{"table1"}},
	{"discover.validate_s", "s", "wall_s cpu_s", "table1", []string{"table1"}},
	{"discover.validate_max_job_s", "s", "wall_s", "table1", []string{"table1"}},
	{"discover.corpus_s", "s", "wall_s", "funnel", []string{"funnel"}},
	{"discover.fuzz_s", "s", "wall_s", "funnel", []string{"funnel"}},
	{"discover.harvest_s", "s", "wall_s", "funnel", []string{"funnel"}},
	{"discover.classify_s", "s", "wall_s", "funnel", []string{"funnel"}},
	{"discover.browse_s", "s", "wall_s", "seh", []string{"seh"}},
	{"discover.extract_s", "s", "wall_s", "seh", []string{"seh"}},
	{"discover.symex_s", "s", "wall_s", "seh", []string{"seh"}},
	{"discover.cross-ref_s", "s", "wall_s", "seh", []string{"seh"}},
	{"discover.pool_tasks", "count", "cpu_s", "all", nil},
	{"discover.pool_idle_share", "share", "wall_s", "table1 funnel", []string{"table1", "funnel"}},
	{"discover.validate_useful_share", "share", "cpu_s", "table1", []string{"table1"}},
	{"kernel.syscalls", "count", "cpu_s", "table1 (funnel seh: 0)", pipelines},
	{"kernel.efault_returns", "count", "cpu_s", "table1 (funnel seh: 0)", pipelines},
	{"kernel.specfor_ns", "ns", "cpu_s", "table1 (funnel seh)", pipelines},
	{"kernel.specfor_bytes", "B", "alloc_mb", "table1 (funnel seh)", pipelines},
	{"kernel.alloc_bytes_per_syscall", "B", "alloc_mb", "table1", []string{"table1"}},
	{"taint.overhead_share", "share", "cpu_s", "table1 (funnel seh)", pipelines},
	{"vm.instructions", "count", "cpu_s", "table1 funnel seh", pipelines},
	{"vm.ns_per_instr", "ns", "wall_s", "seh funnel", []string{"funnel", "seh"}},
	{"vm.newprocess_us", "us", "cpu_s", "funnel (seh)", []string{"funnel", "seh"}},
	{"vm.newprocess_bytes", "B", "alloc_mb", "funnel (seh)", []string{"funnel", "seh"}},
	{"mem.newallocator_us", "us", "cpu_s", "funnel (seh)", []string{"funnel", "seh"}},
	{"mem.newallocator_bytes", "B", "alloc_mb", "funnel (seh)", []string{"funnel", "seh"}},
	{"mem.fetchexec_ns", "ns", "wall_s", "seh", []string{"seh"}},
	{"isa.decode_ns", "ns", "wall_s", "seh", []string{"seh"}},
	{"trace.coverage_overhead_share", "share", "wall_s", "seh", []string{"seh"}},
	{"sym.filters", "count", "cpu_s", "seh", []string{"seh"}},
	{"sym.cache_hits", "count", "cpu_s", "seh", []string{"seh"}},
	{"sym.cache_misses", "count", "cpu_s", "seh", []string{"seh"}},
	{"sym.steps", "count", "cpu_s", "seh", []string{"seh"}},
	{"sym.analyze_us", "us", "wall_s", "seh", []string{"seh"}},
	{"fuzz.probes", "count", "cpu_s", "funnel", []string{"funnel"}},
	{"winapi.api_calls", "count", "cpu_s", "funnel", []string{"funnel"}},
	{"fuzz.fuzzone_us", "us", "cpu_s", "funnel", []string{"funnel"}},
	{"cas.hits", "count", "job_p50_s", "service (seh)", []string{"seh", "service"}},
	{"cas.misses", "count", "job_p50_s", "service (seh)", []string{"seh", "service"}},
	{"cas.bytes", "B", "job_p50_s", "service (seh)", []string{"seh", "service"}},
	{"cas.hit_share", "share", "job_p50_s", "service (seh)", []string{"seh", "service"}},
	{"cas.get_us", "us", "job_p50_s", "service (seh)", []string{"seh", "service"}},
	{"cas.put_us", "us", "job_p50_s", "service (seh)", []string{"seh", "service"}},
	{"service.queue_wait_p50_s", "s", "job_p90_s", "service (seh)", []string{"seh", "service"}},
	{"service.run_p50_s", "s", "job_p50_s", "service (seh)", []string{"seh", "service"}},
	{"service.result_kb", "kB", "job_p50_s", "service (seh)", []string{"seh", "service"}},
	{"service.rejected", "count", "ok_share", "service (seh)", []string{"seh", "service"}},
	{"prof.overhead_share", "share", "cpu_s", "service (seh)", []string{"seh", "service"}},
	{"defense.overhead_share", "share", "cpu_s", "service (seh)", []string{"seh", "service"}},
	{"metrics.registry_overhead_share", "share", "cpu_s", "service (seh)", []string{"seh", "service"}},
	{"runtime.gc_cpu_share", "share", "cpu_s wall_s", "table1 funnel (seh)", pipelines},
	{"runtime.gc_cycles", "count", "cpu_s", "table1 funnel (seh)", pipelines},
	{"host.steal_s", "s", "none: explains wall_s", "all", nil},
	{"bench.trace_overhead_share", "share", "none", "all", nil},
}

// measures reports whether a traced run of workload measures the metric.
func (d layerDef) measures(workload string) bool {
	return d.measuredOn == nil || slices.Contains(d.measuredOn, workload)
}

// perOp times n calls of fn and returns the mean wall time per call and
// the mean bytes allocated per call.
func perOp(n int, fn func(i int)) (time.Duration, float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return d / time.Duration(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

// replaySuites boots each Table I server and runs its test suite, with
// the taint flow attached or with Proc.Flow = nil, and returns the time
// the boots and suites took. obs, when non-nil, watches every syscall.
func replaySuites(seed int64, taint bool, obs kernel.Observer) (time.Duration, error) {
	servers, err := crashresist.Servers()
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, srv := range servers {
		env, err := srv.NewEnvNoStart(seed)
		if err != nil {
			return 0, err
		}
		if !taint {
			env.Proc.Flow = nil
		}
		if obs != nil {
			env.Kern.SetObserver(obs)
		}
		// Collect the previous replay's garbage outside the timing.
		runtime.GC()
		t0 := time.Now()
		if err := env.Boot(); err != nil {
			return 0, err
		}
		if err := srv.Suite(env); err != nil {
			return 0, err
		}
		total += time.Since(t0)
	}
	return total, nil
}

type recordSyscalls struct{ nums *[]uint64 }

func (r recordSyscalls) SyscallEnter(ev kernel.Event)   { *r.nums = append(*r.nums, ev.Num) }
func (recordSyscalls) SyscallExit(kernel.Event, uint64) {}

// specFor times kernel.SpecFor over Table I's syscall mix: the syscalls
// the five servers' suites dispatch.
func specFor(seed int64, m map[string]float64) error {
	var nums []uint64
	if _, err := replaySuites(seed, true, recordSyscalls{&nums}); err != nil {
		return err
	}
	if len(nums) == 0 {
		return fmt.Errorf("Table I suites dispatched no syscalls")
	}
	d, b := perOp(200_000, func(i int) { kernel.SpecFor(nums[i%len(nums)]) })
	m["kernel.specfor_ns"] = float64(d.Nanoseconds())
	m["kernel.specfor_bytes"] = b
	return nil
}

// taintOverhead replays the Table I suites with and without the taint
// flow, alternating, and returns the share of replay time taint costs.
func taintOverhead(seed int64, m map[string]float64) error {
	var with, without []float64
	for i := 0; i < 15; i++ {
		a, err := replaySuites(seed, true, nil)
		if err != nil {
			return err
		}
		b, err := replaySuites(seed, false, nil)
		if err != nil {
			return err
		}
		with, without = append(with, a.Seconds()), append(without, b.Seconds())
	}
	m["taint.overhead_share"] = 1 - median(without)/median(with)
	return nil
}

// processCreation times the fuzz harness's vm.NewProcess and a bare
// mem.NewAllocator, the per-probe set-up the funnel's fuzz stage pays.
func processCreation(seed int64, m map[string]float64) {
	d, b := perOp(2000, func(int) {
		vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: seed, StackSize: 16 * 1024})
	})
	m["vm.newprocess_us"] = float64(d.Nanoseconds()) / 1e3
	m["vm.newprocess_bytes"] = b
	as := mem.NewAddressSpace()
	d, b = perOp(2000, func(i int) { mem.NewAllocator(as, 0x10000000, 0x7f0000000000, seed+int64(i)) })
	m["mem.newallocator_us"] = float64(d.Nanoseconds()) / 1e3
	m["mem.newallocator_bytes"] = b
}

// codeLayer times mem FetchExec and isa.Decode over the browser process's
// executable pages, and symbolic execution of each distinct filter body.
func codeLayer(seed int64, br *crashresist.BrowserTarget, m map[string]float64) error {
	env, err := br.NewEnv(seed)
	if err != nil {
		return err
	}
	as := env.Proc.AS
	var (
		code   []byte   // every executable page, concatenated
		pcs    []uint64 // instruction addresses found by a linear sweep
		starts []int    // the same instructions' offsets into code
	)
	for _, r := range as.Regions() {
		if r.Perm&mem.PermExec == 0 {
			continue
		}
		data, err := as.Read(r.Addr, r.Length)
		if err != nil {
			return err
		}
		for off := 0; off < len(data); {
			ins, n, err := isa.Decode(data[off:])
			if err != nil || n == 0 || !ins.Op.Valid() {
				off++
				continue
			}
			pcs = append(pcs, r.Addr+uint64(off))
			starts = append(starts, len(code)+off)
			off += n
		}
		code = append(code, data...)
	}
	if len(pcs) == 0 {
		return fmt.Errorf("IE process has no decodable code")
	}
	buf := make([]byte, 0, 16)
	d, _ := perOp(len(pcs), func(i int) { as.FetchExec(pcs[i], 16, buf) })
	m["mem.fetchexec_ns"] = float64(d.Nanoseconds())
	d, _ = perOp(len(starts), func(i int) { isa.Decode(code[starts[i]:]) })
	m["isa.decode_ns"] = float64(d.Nanoseconds())

	// Each first analysis of a filter body is one uncached symbolic
	// execution; later filters with the same body are cache hits.
	exec := sym.NewExecutor(env.Proc)
	exec.Cache = sym.NewCache()
	var misses []float64
	for _, mod := range env.Proc.Modules() {
		for _, f := range seh.Extract(mod).Filters {
			before := exec.Cache.Stats()
			t0 := time.Now()
			exec.AnalyzeFilterIn(mod, f)
			d := time.Since(t0)
			if after := exec.Cache.Stats(); after.Misses > before.Misses || after.Uncacheable > before.Uncacheable {
				misses = append(misses, float64(d.Nanoseconds())/1e3)
			}
		}
	}
	m["sym.analyze_us"] = median(misses)
	return nil
}

// browseReplay runs the IE paper browse with and without a coverage
// recorder and reports the recorder's share and the interpreter's
// nanoseconds per retired instruction.
func browseReplay(seed int64, br *crashresist.BrowserTarget, m map[string]float64) error {
	browse := func(coverage bool) (time.Duration, uint64, error) {
		env, err := br.NewEnv(seed)
		if err != nil {
			return 0, 0, err
		}
		if coverage {
			rec := trace.NewRecorder()
			rec.EnableCoverage()
			rec.Attach(env.Proc)
		}
		runtime.GC()
		t0 := time.Now()
		if err := env.Start(); err != nil {
			return 0, 0, err
		}
		if err := env.Browse(); err != nil {
			return 0, 0, err
		}
		return time.Since(t0), env.Proc.Stats.Instructions, nil
	}
	var plain, covered, nsPer []float64
	for i := 0; i < 3; i++ {
		d, n, err := browse(false)
		if err != nil {
			return err
		}
		plain = append(plain, d.Seconds())
		nsPer = append(nsPer, float64(d.Nanoseconds())/float64(n))
		d, _, err = browse(true)
		if err != nil {
			return err
		}
		covered = append(covered, d.Seconds())
	}
	m["vm.ns_per_instr"] = median(nsPer)
	m["trace.coverage_overhead_share"] = median(covered)/median(plain) - 1
	return nil
}

// fuzzOne times Fuzzer.FuzzOne over a seeded sample of the IE paper
// corpus's pointer-taking descriptors.
func fuzzOne(seed int64, br *crashresist.BrowserTarget, m map[string]float64) error {
	env, err := br.NewEnv(seed)
	if err != nil {
		return err
	}
	var ptr []*winapi.Descriptor
	for _, d := range env.Reg.All() {
		if d.HasPointerArg() {
			ptr = append(ptr, d)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ptr), func(i, j int) { ptr[i], ptr[j] = ptr[j], ptr[i] })
	ptr = ptr[:min(len(ptr), 400)]
	fz := fuzz.New(env.Reg, seed)
	var ferr error
	d, _ := perOp(len(ptr), func(i int) {
		if _, err := fz.FuzzOne(ptr[i]); err != nil && ferr == nil {
			ferr = err
		}
	})
	m["fuzz.fuzzone_us"] = float64(d.Nanoseconds()) / 1e3
	return ferr
}

// casLayer times Cache.Put and Cache.Get on payloads of the sizes a
// service batch stored, in a scratch cache.
func casLayer(dir string, sizes []int64, m map[string]float64) error {
	if len(sizes) == 0 {
		return fmt.Errorf("the service batch stored no CAS entries")
	}
	c, err := cas.Open(dir)
	if err != nil {
		return err
	}
	keys := make([]cas.Key, len(sizes))
	payloads := make([]string, len(sizes))
	for i, n := range sizes {
		keys[i] = cas.NewHasher("perfbench/v1").Int(i).Key()
		payloads[i] = strings.Repeat("x", int(n))
	}
	put, _ := perOp(len(sizes), func(i int) { c.Put("perfbench", keys[i], payloads[i]) })
	var out string
	get, _ := perOp(len(sizes), func(i int) { c.Get("perfbench", keys[i], &out) })
	if st := c.Stats(); st.Hits != uint64(len(sizes)) {
		return fmt.Errorf("scratch CAS served %d of %d gets", st.Hits, len(sizes))
	}
	m["cas.put_us"] = float64(put.Nanoseconds()) / 1e3
	m["cas.get_us"] = float64(get.Nanoseconds()) / 1e3
	return nil
}

// observerOverhead runs a fixed set of service-mix requests with no
// observer, with IncludeProfile, with IncludeDetect and with a registry
// sink, alternating, and reports each observer's CPU share over none.
func observerOverhead(ctx context.Context, seed int64, m map[string]float64) error {
	trio := []crashresist.Request{
		{Target: "nginx", Seed: seed, Workers: 1},
		{Target: "lighttpd", Seed: seed, Workers: 1},
		{Target: "ie", Pipeline: crashresist.PipelineSEH, Scale: crashresist.ScaleSmall, Seed: seed, Workers: 1},
		{Target: "ie", Pipeline: crashresist.PipelineAPI, Scale: crashresist.ScaleSmall, Seed: seed, Workers: 1},
	}
	reg := crashresist.NewMetricsRegistry()
	variants := []func(*crashresist.Request){
		func(*crashresist.Request) {},
		func(r *crashresist.Request) { r.IncludeProfile = true },
		func(r *crashresist.Request) { r.IncludeDetect = true },
		func(r *crashresist.Request) { r.Sinks = []crashresist.MetricSink{reg} },
	}
	cpu := make([][]float64, len(variants))
	for rep := 0; rep < 9; rep++ {
		for v, set := range variants {
			runtime.GC()
			c0 := cpuTime()
			for _, req := range trio {
				set(&req)
				if _, err := crashresist.Run(ctx, req); err != nil {
					return err
				}
			}
			cpu[v] = append(cpu[v], (cpuTime() - c0).Seconds())
		}
	}
	base := median(cpu[0])
	m["prof.overhead_share"] = median(cpu[1])/base - 1
	m["defense.overhead_share"] = median(cpu[2])/base - 1
	m["metrics.registry_overhead_share"] = median(cpu[3])/base - 1
	return nil
}

// gcSample reads the runtime's cumulative GC CPU, busy CPU and cycles.
// Busy CPU is the runtime's total less its idle time: the total is
// GOMAXPROCS × wall time, which counts capacity no goroutine used.
type gcSample struct{ gcCPU, busyCPU, cycles float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return gcSample{val(s[0].Value), val(s[1].Value) - val(s[2].Value), val(s[3].Value)}
}
