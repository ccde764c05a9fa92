package crashresist

// Correctness harness for the persistent content-addressed cache: every
// pipeline must produce the same report with the cache cold, warm, absent,
// degraded by injected cache faults, or bypassed — the cache only ever
// changes how fast a result arrives, never the result. Reports are
// compared via normalize (chaos_test.go), which strips only Stats, where
// timings and cache hit ratios live by design.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crashresist/internal/asm"
	"crashresist/internal/faultinject"
)

// cachePipelines enumerates the three discovery pipelines against small
// fixed targets at seed 42, each taking the request settings callers vary
// per run (worker counts, cache wiring).
func cachePipelines(t *testing.T) []struct {
	name    string
	analyze func(req Request) (any, error)
} {
	t.Helper()
	srv, err := Server("nginx")
	if err != nil {
		t.Fatal(err)
	}
	br, err := IE(SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	return []struct {
		name    string
		analyze func(req Request) (any, error)
	}{
		{"syscall", func(req Request) (any, error) {
			req.Server, req.Seed = srv, 42
			return reportOf(Run(ctx, req))
		}},
		{"api", func(req Request) (any, error) {
			req.Pipeline, req.Browser, req.Seed = PipelineAPI, br, 42
			return reportOf(Run(ctx, req))
		}},
		{"seh", func(req Request) (any, error) {
			req.Pipeline, req.Browser, req.Seed = PipelineSEH, br, 42
			return reportOf(Run(ctx, req))
		}},
	}
}

// statsOf pulls the RunStats out of any pipeline report.
func statsOf(t *testing.T, rep any) *RunStats {
	t.Helper()
	switch r := rep.(type) {
	case *SyscallReport:
		return r.Stats
	case *APIFunnelReport:
		return r.Stats
	case *SEHReport:
		return r.Stats
	}
	t.Fatalf("unknown report type %T", rep)
	return nil
}

// TestCacheEquivalenceAllPipelines runs each pipeline cache-off, then cold
// and warm against one cache directory at 1, 4 and 8 workers, and asserts
// every normalized report is identical. It also proves the per-run counter
// wiring: the cold run only misses, warm runs hit, and nothing is ever
// flagged as a bad entry.
func TestCacheEquivalenceAllPipelines(t *testing.T) {
	for _, pl := range cachePipelines(t) {
		pl := pl
		t.Run(pl.name, func(t *testing.T) {
			cache, err := OpenAnalysisCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}

			baseline, err := pl.analyze(Request{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := normalize(t, baseline)
			if h := statsOf(t, baseline).Counter(CtrCacheHits); h != 0 {
				t.Errorf("cache-off run counted %d cache hits", h)
			}

			cold, err := pl.analyze(Request{Workers: 1, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if got := normalize(t, cold); got != want {
				t.Errorf("cold cached report differs from cache-off report")
			}
			coldStats := statsOf(t, cold)
			if coldStats.Counter(CtrCacheHits) != 0 || coldStats.Counter(CtrCacheMisses) == 0 {
				t.Errorf("cold run: hits=%d misses=%d, want 0 hits and some misses",
					coldStats.Counter(CtrCacheHits), coldStats.Counter(CtrCacheMisses))
			}

			for _, workers := range []int{1, 4, 8} {
				warm, err := pl.analyze(Request{Workers: workers, Cache: cache})
				if err != nil {
					t.Fatal(err)
				}
				if got := normalize(t, warm); got != want {
					t.Errorf("warm cached report (workers=%d) differs from cache-off report", workers)
				}
				st := statsOf(t, warm)
				if st.Counter(CtrCacheHits) == 0 {
					t.Errorf("warm run (workers=%d) never hit the cache", workers)
				}
				if st.Counter(CtrCacheBadEntries) != 0 {
					t.Errorf("warm run (workers=%d) flagged %d bad entries",
						workers, st.Counter(CtrCacheBadEntries))
				}
				if st.Counter(CtrCacheBytes) == 0 {
					t.Errorf("warm run (workers=%d) counted no cache bytes", workers)
				}
			}
			if st := cache.Stats(); st.BadEntries != 0 {
				t.Errorf("cache-level bad entries = %d", st.BadEntries)
			}
		})
	}
}

// TestChaosCacheDegradesToRecompute attaches a fault plan to the cache
// itself (the cas.read / cas.write sites), sweeping seeds and worker
// counts: injected cache faults may only cost recomputation — every report
// stays identical to the fault-free baseline. The TestChaos prefix pulls
// it into the `make chaos` paper-scale gate.
func TestChaosCacheDegradesToRecompute(t *testing.T) {
	for _, pl := range cachePipelines(t) {
		pl := pl
		t.Run(pl.name, func(t *testing.T) {
			baseline, err := pl.analyze(Request{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := normalize(t, baseline)

			for _, seed := range chaosSeedSet() {
				cache, err := OpenAnalysisCache(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				plan := faultinject.New(seed).
					Enable(faultinject.SiteCASRead, faultinject.SiteConfig{Rate: 0.4, Mode: faultinject.ModePermanent}).
					Enable(faultinject.SiteCASWrite, faultinject.SiteConfig{Rate: 0.4, Mode: faultinject.ModePermanent})
				cache.SetFaultPlan(plan)

				for _, workers := range chaosWorkerCounts {
					rep, err := pl.analyze(Request{Workers: workers, Cache: cache})
					if err != nil {
						t.Fatalf("seed %d workers %d: %v", seed, workers, err)
					}
					if got := normalize(t, rep); got != want {
						t.Errorf("seed %d workers %d: cache faults changed the report", seed, workers)
					}
				}
				if plan.Stats()[faultinject.SiteCASRead]+plan.Stats()[faultinject.SiteCASWrite] == 0 {
					t.Errorf("seed %d: no cache faults fired; chaos wiring broken", seed)
				}
			}
		})
	}
}

// TestPipelineChaosBypassesCache checks the poisoning guard: while a fault
// plan is injecting into a pipeline, results may be partial or degraded, so
// the pipeline must not read from or publish into the persistent cache.
func TestPipelineChaosBypassesCache(t *testing.T) {
	srv, err := Server("nginx")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cache, err := OpenAnalysisCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Request{Server: srv, Seed: 42, Workers: 4, Cache: cache,
		FaultPlan: DefaultFaultPlan(1), Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Syscall
	if h, m := rep.Stats.Counter(CtrCacheHits), rep.Stats.Counter(CtrCacheMisses); h != 0 || m != 0 {
		t.Errorf("chaos run touched the cache: hits=%d misses=%d", h, m)
	}
	var entries int
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			entries++
		}
		return nil
	})
	if entries != 0 {
		t.Errorf("chaos run published %d entries into the cache", entries)
	}
}

// TestCorruptedEntriesNeverChangeReports populates a cache, damages every
// published entry in place (bit flips, truncation and zero fills, cycling
// per file), and re-runs each pipeline: all damage must be detected and
// counted, the reports must stay identical, and the recompute must leave
// the directory healthy again.
func TestCorruptedEntriesNeverChangeReports(t *testing.T) {
	for _, pl := range cachePipelines(t) {
		pl := pl
		t.Run(pl.name, func(t *testing.T) {
			dir := t.TempDir()
			cache, err := OpenAnalysisCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := pl.analyze(Request{Workers: 1, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			want := normalize(t, cold)

			var entries []string
			filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
				if err == nil && !info.IsDir() && strings.HasSuffix(path, ".cce") {
					entries = append(entries, path)
				}
				return nil
			})
			if len(entries) == 0 {
				t.Fatal("cold run published no entries")
			}
			for i, path := range entries {
				switch i % 3 {
				case 0: // bit flip
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					data[len(data)/2] ^= 0x10
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
				case 1: // truncate
					if err := os.Truncate(path, 10); err != nil {
						t.Fatal(err)
					}
				case 2: // zero fill
					st, err := os.Stat(path)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, make([]byte, st.Size()), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}

			warm, err := pl.analyze(Request{Workers: 4, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if got := normalize(t, warm); got != want {
				t.Error("corrupted cache changed the report")
			}
			st := statsOf(t, warm)
			if st.Counter(CtrCacheBadEntries) != uint64(len(entries)) {
				t.Errorf("detected %d bad entries, corrupted %d",
					st.Counter(CtrCacheBadEntries), len(entries))
			}
			if st.Counter(CtrCacheHits) != 0 {
				t.Errorf("%d hits served from a fully corrupted dir", st.Counter(CtrCacheHits))
			}

			// The recompute rewrote every entry: a third run is all hits.
			healed, err := pl.analyze(Request{Workers: 1, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if got := normalize(t, healed); got != want {
				t.Error("healed cache changed the report")
			}
			hst := statsOf(t, healed)
			if hst.Counter(CtrCacheBadEntries) != 0 {
				t.Errorf("healed run still saw %d bad entries", hst.Counter(CtrCacheBadEntries))
			}
			if hst.Counter(CtrCacheHits) == 0 {
				t.Error("healed run never hit")
			}
		})
	}
}

// TestIncrementalRediscovery is the paper-scale invalidation test: after a
// cold Table III run, mutate 5 of the 187 DLLs (a trailing unguarded nop —
// content-visible but semantically inert) and re-run warm. Only the
// changed DLLs (plus the known-impure jscript9) may recompute, and the
// report must not change at all.
func TestIncrementalRediscovery(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale corpus build")
	}
	cache, err := OpenAnalysisCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	br, err := IE(PaperBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Request{Pipeline: PipelineSEH, Browser: br, Seed: 42, Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	cold := res.SEH
	coldMisses := cold.Stats.Counter(CtrCacheMisses)
	if coldMisses == 0 {
		t.Fatal("cold run recorded no cache misses")
	}

	mutated := []string{"user32.dll", "kernel32.dll", "msvcrt.dll", "rpcrt4.dll", "ws2_32.dll"}
	params := PaperBrowserParams()
	params.Corpus.Extend = make(map[string]func(*asm.Builder), len(mutated))
	for _, name := range mutated {
		params.Corpus.Extend[name] = func(b *asm.Builder) { b.Nop() }
	}
	br2, err := IE(params)
	if err != nil {
		t.Fatal(err)
	}
	res, err = Run(context.Background(), Request{Pipeline: PipelineSEH, Browser: br2, Seed: 42, Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	warm := res.SEH

	if got, want := normalize(t, warm), normalize(t, cold); got != want {
		t.Error("inert mutation changed the report")
	}
	hits := warm.Stats.Counter(CtrCacheHits)
	misses := warm.Stats.Counter(CtrCacheMisses)
	if hits+misses != coldMisses {
		t.Errorf("warm run looked up %d modules, cold analyzed %d", hits+misses, coldMisses)
	}
	// The acceptance bar: a 5-of-187 mutation must re-execute at most 10%
	// of the cold run's analyses.
	if misses*10 > coldMisses {
		t.Errorf("warm run recomputed %d of %d modules, want <= 10%%", misses, coldMisses)
	}
	// And precisely: the 5 mutated DLLs plus the impure jscript9.
	if misses != uint64(len(mutated))+1 {
		t.Errorf("warm misses = %d, want %d (5 mutated + jscript9)", misses, len(mutated)+1)
	}
	t.Logf("incremental re-discovery: %d/%d modules recomputed (%d served from cache)",
		misses, coldMisses, hits)
}

// TestCacheSurvivesCorpusPermutations re-checks determinism across cache
// generations: entries written by a workers=8 run must satisfy a workers=1
// reader and vice versa, across distinct Cache instances over one dir.
func TestCacheSurvivesCorpusPermutations(t *testing.T) {
	br, err := IE(SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var want string
	for i, workers := range []int{8, 1, 4} {
		cache, err := OpenAnalysisCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), Request{Pipeline: PipelineSEH, Browser: br, Seed: 42, Workers: workers, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		rep := res.SEH
		got := normalize(t, rep)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d report over shared cache differs", workers)
		}
		if rep.Stats.Counter(CtrCacheHits) == 0 {
			t.Errorf("workers=%d run over a warm dir never hit", workers)
		}
	}
}
