package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration.
//
// On the shared VM the benchmark was tuned on, the speed of a CPU-second
// moves with what other tenants run: the same seh operation took 1.01 s of
// CPU in one half hour and 0.44–0.48 s in the next, with almost no steal in
// either, and the set-up builds moved with it. No number of repetitions
// averages that out, because it lasts longer than a run. So the benchmark
// times a reference loop before and after the set-up builds and after every
// operation, and scales the timed end-to-end metrics by the run's median
// loop time. The loop is fixed benchmark code that no program change
// touches, so its time measures the host alone: a median time ×
// refSeconds ÷ the median loop time reads as seconds on a host as fast as
// the tuning host was when quiet. The run line keeps every raw time and
// every loop time beside the scaled metrics.

// refSeconds is about the reference loop's thread CPU time on the tuning
// host (2-vCPU Intel Xeon VM, go1.24) in a quiet period: the fastest loop
// times seen there. Its value only sets the unit of the scaled times.
const refSeconds = 0.043

const (
	// refThreads runs one loop per vCPU at once, so the reference sees
	// both vCPUs, as the two-worker operations do.
	refThreads = 2
	// refRepeats is how many loop times each sample point takes. The
	// host's speed also moves within seconds, and a run's median over
	// many loop times follows it far better than the times around any
	// one operation do.
	refRepeats = 3
	// refSteps is the loop's length: about 40 ms on the tuning host.
	refSteps = 20_000_000
	// refWalkBytes is the region each loop's memory steps wander over:
	// past the first-level data cache, within a core's own second level.
	// A region in the shared last-level cache made the loop's time follow
	// other tenants' cache use, which left the workloads' times unchanged.
	refWalkBytes = 256 << 10
)

// refProg is the reference loop's byte code: 1,024 four-byte instructions
// drawn once from a fixed generator.
var refProg = func() []byte {
	prog := make([]byte, 4096)
	x := uint32(0x2545f491)
	for i := range prog {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		prog[i] = byte(x >> 11)
	}
	return prog
}()

var (
	// refWalk is each loop's memory region. It holds no pointers, so the
	// collector never scans it.
	refWalk [refThreads][refWalkBytes]byte
	// refSink keeps the loops' results alive.
	refSink [refThreads]uint64
)

// refLoop interprets refProg for refSteps steps over sixteen registers.
// One opcode in eight takes a dependent step through walk, so the loop
// mixes the two costs the workloads spend their time on: an interpreter's
// fetch, decode and data-dependent dispatch, and memory accesses that miss
// the core's caches.
func refLoop(walk []byte) uint64 {
	var regs [16]uint64
	mask := uint64(len(walk) - 1)
	var at uint64
	pc := 0
	for step := 0; step < refSteps; step++ {
		op, a, b, k := refProg[pc], refProg[pc+1]&15, refProg[pc+2]&15, uint64(refProg[pc+3])
		pc += 4
		switch op & 7 {
		case 0, 1:
			regs[a] += regs[b] + k
		case 2:
			regs[a] ^= regs[b] >> (k & 31)
		case 3:
			regs[a] = regs[a]*0x9e3779b97f4a7c15 + regs[b]
		case 4:
			if regs[a]&1 == 0 {
				pc = int(regs[b]&1023) * 4
			}
		case 5:
			regs[a] = regs[b] - k
		case 6:
			regs[a] = regs[a]<<1 | regs[b]>>63
		case 7:
			at = (at*0x9e3779b97f4a7c15 + uint64(walk[at]) + regs[a]) & mask
			walk[at]++
			regs[b] += uint64(walk[at])
		}
		if pc == len(refProg) {
			pc = 0
		}
	}
	var sum uint64
	for _, r := range regs {
		sum += r
	}
	return sum
}

// refTime runs the reference loop on refThreads threads at once and
// returns their mean thread CPU seconds.
func refTime() float64 {
	var wg sync.WaitGroup
	times := make([]float64, refThreads)
	for i := range times {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPUTime()
			refSink[i] = refLoop(refWalk[i][:])
			times[i] = (threadCPUTime() - t0).Seconds()
		}(i)
	}
	wg.Wait()
	var sum float64
	for _, t := range times {
		sum += t
	}
	return sum / refThreads
}

// speedometer collects a run's reference-loop times.
type speedometer struct {
	samples []float64
}

// sample times the reference loop refRepeats times.
func (sp *speedometer) sample() {
	for i := 0; i < refRepeats; i++ {
		sp.samples = append(sp.samples, refTime())
	}
}

// scale is the factor that converts the run's times to the tuning host's
// quiet speed: refSeconds ÷ the median loop time.
func (sp *speedometer) scale() float64 {
	return refSeconds / median(sp.samples)
}

// threadCPUTime is the calling thread's CPU time so far
// (CLOCK_THREAD_CPUTIME_ID).
func threadCPUTime() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
