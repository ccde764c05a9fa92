package discover

// Instrumentation glue between the pipelines and the metrics package: one
// collector per analysis run, harvesting the emulator's, kernel model's and
// symex cache's counters into it. Everything here mirrors deterministic
// totals — harvest calls are commutative additions, so run counters are
// identical at any worker count.

import (
	"crashresist/internal/kernel"
	"crashresist/internal/metrics"
	"crashresist/internal/sym"
	"crashresist/internal/vm"
)

// harvestVMStats mirrors a finished process's counters into the collector.
func harvestVMStats(col *metrics.Collector, s vm.Stats) {
	col.Add(metrics.CtrInstructions, s.Instructions)
	col.Add(metrics.CtrFaults, s.Faults)
	col.Add(metrics.CtrFaultsUnmapped, s.FaultsUnmapped)
	col.Add(metrics.CtrFaultsHandled, s.FaultsHandled)
	col.Add(metrics.CtrSyscalls, s.Syscalls)
	col.Add(metrics.CtrAPICalls, s.APICalls)
	col.Add(metrics.CtrFaultsInjected, s.FaultsInjected)
}

// harvestKernelCounts mirrors a kernel model's dispatch counters,
// including the per-process fault-event time series.
func harvestKernelCounts(col *metrics.Collector, c kernel.Counts) {
	col.Add(metrics.CtrEFAULTReturns, c.EFAULTReturns)
	col.Add(metrics.CtrFaultsInjected, c.Injected)
	col.AddFaultEvents(c.EFAULTBuckets)
}

// harvestCacheStats mirrors the symex cache counters.
func harvestCacheStats(col *metrics.Collector, s sym.CacheStats) {
	col.Add(metrics.CtrSymexCacheHits, uint64(s.Hits))
	col.Add(metrics.CtrSymexCacheMisses, uint64(s.Misses))
	col.Add(metrics.CtrSymexCacheUncacheable, uint64(s.Uncacheable))
}
