package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"crashresist"
)

// emitCachedString renders one artifact like emitString but with the
// persistent cache attached.
func emitCachedString(t *testing.T, table string, workers int, cache *crashresist.AnalysisCache) string {
	t.Helper()
	var buf bytes.Buffer
	cfg := config{table: table, format: "text", req: crashresist.Request{
		Scale:   "paper",
		Seed:    goldenSeed,
		Workers: workers,
		Cache:   cache,
	}}
	if _, err := emit(&buf, cfg); err != nil {
		t.Fatalf("emit %s (workers=%d, cached): %v", table, workers, err)
	}
	return buf.String()
}

// TestCacheEquivalence is the headline correctness harness for the
// persistent cache: for every paper artifact, a cold populating run and
// warm runs at 1, 4 and 8 workers must all match the cache-off golden
// bytes exactly. The cache may only change how a result is obtained,
// never what it is.
func TestCacheEquivalence(t *testing.T) {
	cacheDir := t.TempDir()
	cache, err := crashresist.OpenAnalysisCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		table string
	}{
		{"table1", "1"},
		{"funnel", "funnel"},
		{"table2", "2"},
		{"table3", "3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.name+".golden"))
			if err != nil {
				t.Fatalf("missing golden (run TestGolden with -update): %v", err)
			}
			cold := emitCachedString(t, tc.table, 1, cache)
			if cold != string(want) {
				t.Errorf("cold cached output differs from golden:\n%s", diffLines(string(want), cold))
			}
			for _, workers := range []int{1, 4, 8} {
				warm := emitCachedString(t, tc.table, workers, cache)
				if warm != string(want) {
					t.Errorf("warm cached output (workers=%d) differs from golden:\n%s",
						workers, diffLines(string(want), warm))
				}
			}
		})
	}
	if st := cache.Stats(); st.Hits == 0 || st.BadEntries != 0 {
		t.Errorf("cache stats after equivalence sweep = %+v; want hits and no bad entries", st)
	}
}

// TestCacheWarmRunServesSymexFromDisk proves the warm Table III run really
// skips the expensive stage: after one cold run, a warm run must serve the
// per-DLL symbolic-execution results (almost) entirely from disk. Only
// jscript9.dll — whose filter analysis depends on the module base, not just
// its body bytes — legitimately recomputes every run.
func TestCacheWarmRunServesSymexFromDisk(t *testing.T) {
	cache, err := crashresist.OpenAnalysisCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	emitCachedString(t, "3", 1, cache)
	coldSt := cache.Stats()

	emitCachedString(t, "3", 4, cache)
	warmSt := cache.Stats()

	hits := warmSt.Hits - coldSt.Hits
	misses := warmSt.Misses - coldSt.Misses
	// Paper scale loads 187 DLLs; the warm run may miss only the handful of
	// modules whose results are not body-pure.
	if hits < 180 {
		t.Errorf("warm run hit %d cached modules, want >= 180", hits)
	}
	if misses > 7 {
		t.Errorf("warm run missed %d times, want <= 7 (impure modules only)", misses)
	}
	if warmSt.BadEntries != coldSt.BadEntries {
		t.Errorf("warm run flagged %d bad entries", warmSt.BadEntries-coldSt.BadEntries)
	}
}
