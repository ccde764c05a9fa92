package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// userHZ is the kernel's USER_HZ, the unit of /proc/stat times. Linux
// fixes it at 100 on every architecture Go supports.
const userHZ = 100

// parseSteal reads the aggregate "cpu" line of a /proc/stat document and
// returns its steal time in seconds: time the hypervisor ran someone else
// while this guest's vCPUs were runnable.
func parseSteal(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		// cpu user nice system idle iowait irq softirq steal ...
		if len(f) < 9 {
			return 0, fmt.Errorf("/proc/stat cpu line has %d fields, want ≥ 9", len(f))
		}
		ticks, err := strconv.ParseUint(f[8], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/stat steal field: %w", err)
		}
		return float64(ticks) / userHZ, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("/proc/stat has no aggregate cpu line")
}

// stealNow returns the host's cumulative steal seconds, or 0 where
// /proc/stat is unreadable (steal is recorded, never gated on).
func stealNow() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	s, err := parseSteal(f)
	if err != nil {
		return 0
	}
	return s
}

// parseRunDelay reads a schedstat line (/proc/<pid>/task/<tid>/schedstat:
// nanoseconds on a CPU, nanoseconds runnable but waiting on a run queue,
// timeslices) and returns the wait in seconds.
func parseRunDelay(line string) (float64, error) {
	f := strings.Fields(line)
	if len(f) != 3 {
		return 0, fmt.Errorf("schedstat has %d fields, want 3", len(f))
	}
	ns, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat run delay: %w", err)
	}
	return float64(ns) / 1e9, nil
}

// runDelayNow returns the seconds this process's threads have spent
// runnable but waiting for a vCPU, summed over its live threads, or 0
// where schedstat is unreadable. Other tasks in the guest add to it, and
// so does the wake-up latency of the runtime's own thread hand-offs.
func runDelayNow() float64 {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return 0
	}
	var sum float64
	for _, t := range tasks {
		data, err := os.ReadFile("/proc/self/task/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited
		}
		if d, err := parseRunDelay(string(data)); err == nil {
			sum += d
		}
	}
	return sum
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's CPU time so far, every thread included, read
// from CLOCK_PROCESS_CPUTIME_ID. Unlike getrusage, whose per-call values
// move in scheduler ticks, it resolves sub-millisecond intervals.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// resetPeakRSS clears the kernel's resident-set high-water mark of this
// process, so the next peakRSSMB covers only what runs in between. It
// reports false where the kernel does not allow it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's resident-set high-water mark in MB: VmHWM of
// /proc/self/status, else getrusage's maxrss (both in KiB).
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// loadAvg1 is the guest's one-minute load average from /proc/loadavg, or
// 0 where it is unreadable (load is recorded, never gated on).
func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// hostInfo is the run's host-noise record, printed next to its metrics.
type hostInfo struct {
	StealS float64 `json:"steal_s"`
	// RefS is the run's median reference-loop time (calib.go);
	// refSeconds ÷ RefS is the host's speed against the tuning host in a
	// quiet period.
	RefS       float64 `json:"ref_s"`
	Load1      float64 `json:"load1"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
}

func newHostInfo(stealS, refS float64) hostInfo {
	return hostInfo{
		StealS:     stealS,
		RefS:       refS,
		Load1:      loadAvg1(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}
