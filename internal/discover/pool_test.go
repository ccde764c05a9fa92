package discover

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"crashresist/internal/metrics"
	"crashresist/internal/targets"
)

func TestRunIndexedCoversAllJobs(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 8, 100} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 37
			out := make([]int, n)
			if err := runIndexed(context.Background(), workers, n, nil, func(i int) error {
				out[i] = i * i
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("slot %d = %d, want %d", i, v, i*i)
				}
			}
		})
	}
}

func TestRunIndexedReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("job 3 failed")
	errB := errors.New("job 9 failed")
	err := runIndexed(context.Background(), 4, 12, nil, func(i int) error {
		switch i {
		case 3:
			return errA
		case 9:
			return errB
		}
		return nil
	})
	if err != errA {
		t.Fatalf("got %v, want lowest-index error %v", err, errA)
	}
}

func TestRunIndexedZeroJobs(t *testing.T) {
	if err := runIndexed(context.Background(), 4, 0, nil, func(int) error {
		t.Fatal("fn called for empty job set")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunShardedStateIsolation(t *testing.T) {
	// Each worker state is a private counter; the per-state sums must
	// add up to the job count without any synchronization in fn.
	const n = 200
	var created atomic.Int32
	counters := make([]*int64, 0, 8)
	err := runSharded(context.Background(), 4, n, nil,
		func() (*int64, error) {
			created.Add(1)
			c := new(int64)
			counters = append(counters, c)
			return c, nil
		},
		func(c *int64, i int) error {
			*c++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := created.Load(); got != 4 {
		t.Fatalf("created %d states, want 4", got)
	}
	var total int64
	for _, c := range counters {
		total += *c
	}
	if total != n {
		t.Fatalf("jobs executed = %d, want %d", total, n)
	}
}

func TestRunShardedStateError(t *testing.T) {
	boom := errors.New("no state for you")
	err := runSharded(context.Background(), 3, 10, nil,
		func() (int, error) { return 0, boom },
		func(int, int) error {
			t.Fatal("fn called despite state construction failure")
			return nil
		})
	if err != boom {
		t.Fatalf("got %v, want %v", err, boom)
	}
}

func TestRunShardedCapsWorkersAtJobs(t *testing.T) {
	var created atomic.Int32
	err := runSharded(context.Background(), 16, 2, nil,
		func() (struct{}, error) {
			created.Add(1)
			return struct{}{}, nil
		},
		func(struct{}, int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := created.Load(); got != 2 {
		t.Fatalf("created %d states for 2 jobs, want 2", got)
	}
}

// TestSEHAnalyzeWorkerInvariance is the core determinism property of the
// parallel SEH pipeline: every worker count yields a deeply equal report.
func TestSEHAnalyzeWorkerInvariance(t *testing.T) {
	br, err := targets.IE(targets.SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeSEH(context.Background(), Config{Seed: 42, Workers: 1}, br)
	if err != nil {
		t.Fatal(err)
	}
	// RunStats carries wall-clock times and shard splits, which are
	// legitimately worker-dependent; everything else must match exactly.
	want.Stats = nil
	for _, workers := range []int{2, 4, 8} {
		got, err := AnalyzeSEH(context.Background(), Config{Seed: 42, Workers: workers}, br)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got.Stats = nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d report differs from sequential:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestAPIAnalyzeWorkerInvariance: the funnel is byte-identical for any
// worker count.
func TestAPIAnalyzeWorkerInvariance(t *testing.T) {
	br, err := targets.IE(targets.SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeAPIs(context.Background(), Config{Seed: 42, Workers: 1}, br)
	if err != nil {
		t.Fatal(err)
	}
	want.Stats = nil
	for _, workers := range []int{2, 8} {
		got, err := AnalyzeAPIs(context.Background(), Config{Seed: 42, Workers: workers}, br)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got.Stats = nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d funnel differs from sequential:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestSyscallAnalyzeWorkerInvariance: per-candidate validation fan-out and
// AnalyzeServers server fan-out both reproduce the sequential reports.
func TestSyscallAnalyzeWorkerInvariance(t *testing.T) {
	servers, err := targets.AllServers()
	if err != nil {
		t.Fatal(err)
	}
	// Two servers keep the 3× replay cost reasonable; the golden tests
	// cover all five at paper scale.
	servers = servers[:2]
	var want []*SyscallReport
	for _, srv := range servers {
		rep, err := AnalyzeServer(context.Background(), Config{Seed: 42, Workers: 1}, srv)
		if err != nil {
			t.Fatal(err)
		}
		rep.Stats = nil
		want = append(want, rep)
	}
	for _, workers := range []int{2, 8} {
		got, err := AnalyzeServers(context.Background(), Config{Seed: 42, Workers: workers}, servers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(got), len(want))
		}
		for i := range got {
			got[i].Stats = nil
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d report[%d] (%s) differs from sequential", workers, i, want[i].Server)
			}
		}
	}
}

// TestSEHCacheEffective pins the memoizing symex cache behaviour at paper
// scale: the 5,751 filters collapse onto a handful of unique bodies, and
// the lone import-calling filter is refused (impure).
func TestSEHCacheEffective(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale corpus build in -short mode")
	}
	br, err := targets.IE(targets.PaperBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeSEH(context.Background(), Config{Seed: 42}, br)
	if err != nil {
		t.Fatal(err)
	}
	hits := rep.Stats.Counter(metrics.CtrSymexCacheHits)
	misses := rep.Stats.Counter(metrics.CtrSymexCacheMisses)
	uncacheable := rep.Stats.Counter(metrics.CtrSymexCacheUncacheable)
	if total := hits + misses + uncacheable; total != uint64(rep.TotalFilters) {
		t.Errorf("cache saw %d analyses, want TotalFilters=%d", total, rep.TotalFilters)
	}
	if hits < 10*misses {
		t.Errorf("cache hits (%d) not dominating misses (%d)", hits, misses)
	}
	if uncacheable == 0 {
		t.Error("expected the import-calling cfg_filter to be uncacheable")
	}
}
