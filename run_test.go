package crashresist

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestRunRequestSettings covers the settings Run resolves itself before
// handing one discover.Config to the pipelines: the chaos seed's default
// retry budget, cache attachment versus CacheDir, an unusable CacheDir,
// and Progress serialization across parallel server runs.
func TestRunRequestSettings(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"chaos_seed_defaults_retries", func(t *testing.T) {
			bySeed, err := Run(ctx, Request{Target: "all", Seed: 42, ChaosSeed: 1})
			if err != nil {
				t.Fatal(err)
			}
			byPlan, err := Run(ctx, Request{Target: "all", Seed: 42, FaultPlan: DefaultFaultPlan(1), Retries: 2})
			if err != nil {
				t.Fatal(err)
			}
			var retriesBySeed, retriesByPlan uint64
			for i := range bySeed.Servers {
				if normalize(t, bySeed.Servers[i]) != normalize(t, byPlan.Servers[i]) {
					t.Errorf("%s: ChaosSeed report differs from the explicit plan with 2 retries",
						bySeed.Servers[i].Server)
				}
				retriesBySeed += bySeed.Servers[i].Stats.Counter(CtrRetries)
				retriesByPlan += byPlan.Servers[i].Stats.Counter(CtrRetries)
			}
			if retriesBySeed != 3 || retriesByPlan != 3 {
				t.Errorf("retries = %d (ChaosSeed) and %d (plan), want 3 at chaos seed 1",
					retriesBySeed, retriesByPlan)
			}
		}},
		{"cache_wins_over_cache_dir", func(t *testing.T) {
			attached, ignored := t.TempDir(), filepath.Join(t.TempDir(), "ignored")
			cache, err := OpenAnalysisCache(attached)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(ctx, Request{Target: "nginx", Seed: 42, Cache: cache, CacheDir: ignored})
			if err != nil {
				t.Fatal(err)
			}
			if res.Syscall.Stats.Counter(CtrCacheMisses) == 0 {
				t.Error("run with an attached cache counted no cache lookups")
			}
			if n := countFiles(t, attached); n == 0 {
				t.Error("attached cache received no entries")
			}
			if _, err := os.Stat(ignored); !os.IsNotExist(err) {
				t.Errorf("CacheDir was opened despite an attached Cache (stat: %v)", err)
			}
		}},
		{"cache_dir", func(t *testing.T) {
			baseline, err := Run(ctx, Request{Target: "nginx", Seed: 42, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := normalize(t, baseline.Syscall)

			dir := t.TempDir()
			for run := 0; run < 2; run++ {
				res, err := Run(ctx, Request{Target: "nginx", Seed: 42, Workers: 1, CacheDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				if got := normalize(t, res.Syscall); got != want {
					t.Errorf("run %d with cache dir differs from baseline", run)
				}
				if run == 1 && res.Syscall.Stats.Counter(CtrCacheHits) == 0 {
					t.Error("second run against the same dir never hit")
				}
			}

			// A path that cannot be a directory: Run must degrade, not fail.
			file := filepath.Join(t.TempDir(), "not-a-dir")
			if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
			res, err := Run(ctx, Request{Target: "nginx", Seed: 42, Workers: 1, CacheDir: filepath.Join(file, "cache")})
			if err != nil {
				t.Fatalf("unusable cache dir failed the analysis: %v", err)
			}
			if got := normalize(t, res.Syscall); got != want {
				t.Errorf("degraded-cache report differs from baseline")
			}
			if res.Syscall.Stats.Counter(CtrCacheHits) != 0 || res.Syscall.Stats.Counter(CtrCacheMisses) != 0 {
				t.Error("degraded cache still counted traffic")
			}
		}},
		{"progress_serialized", func(t *testing.T) {
			// No locking here: under -race this fails unless Run
			// serializes the callback across the parallel server runs.
			var events []StageEvent
			res, err := Run(ctx, Request{Target: "all", Seed: 42, Workers: 4,
				Progress: func(ev StageEvent) { events = append(events, ev) }})
			if err != nil {
				t.Fatal(err)
			}
			targets := make(map[string]bool)
			for _, ev := range events {
				targets[ev.Target] = true
			}
			if len(targets) != len(res.Servers) {
				t.Errorf("events name %d targets, want %d", len(targets), len(res.Servers))
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// countFiles counts the regular files under dir.
func countFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}
