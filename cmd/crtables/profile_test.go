package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"crashresist"
)

// profileOutputs runs emit with a fresh profile attached and returns the
// artifact bytes plus the profile's ranked and folded renderings.
func profileOutputs(t *testing.T, cfg config) (tables, top, folded string) {
	t.Helper()
	if cfg.req.Profile == nil {
		cfg.req.Profile = crashresist.NewProfile()
	}
	var buf bytes.Buffer
	if _, err := emit(&buf, cfg); err != nil {
		t.Fatalf("emit: %v", err)
	}
	snap := cfg.req.Profile.Snapshot()
	var tb, fb bytes.Buffer
	if err := snap.WriteTop(&tb, 0); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteFolded(&fb); err != nil {
		t.Fatal(err)
	}
	return buf.String(), tb.String(), fb.String()
}

// profileSweepTable is the artifact scope for the paper-scale profile
// sweeps: every table normally, the (cheap, symex-heavy) Table III alone
// under the race detector so cmd/crtables stays inside the package test
// timeout with -race. The properties themselves are scope-independent.
func profileSweepTable() string {
	if raceDetectorEnabled {
		return "3"
	}
	return "all"
}

// TestProfileGoldenUnchanged proves that attaching a profile never leaks
// into the artifact writer: every paper-scale golden still matches
// byte-for-byte with profiling ON, and the profile itself is non-empty.
func TestProfileGoldenUnchanged(t *testing.T) {
	cases := []struct {
		name  string
		table string
	}{
		{"table1", "1"},
		{"funnel", "funnel"},
		{"table2", "2"},
		{"table3", "3"},
	}
	if raceDetectorEnabled {
		cases = cases[len(cases)-1:]
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tables, _, folded := profileOutputs(t, config{table: tc.table, format: "text", req: crashresist.Request{
				Scale: "paper", Seed: goldenSeed, Workers: 4,
			}})
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.name+".golden"))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			if tables != string(want) {
				t.Errorf("profiled output differs from golden:\n%s", diffLines(string(want), tables))
			}
			if strings.TrimSpace(folded) == "" {
				t.Error("profile stayed empty over a full artifact run")
			}
		})
	}
}

// TestProfileWorkerInvariance is the tentpole determinism claim: the exact
// profile is byte-identical (ranked and folded) at 1, 4 and 8 workers, and
// the ranked symex section is dominated (≥50%) by the reject-proof verdict
// class, the paper's actual hot spot.
func TestProfileWorkerInvariance(t *testing.T) {
	base := config{table: profileSweepTable(), format: "text", req: crashresist.Request{Scale: "paper", Seed: goldenSeed}}

	cfg := base
	cfg.req.Workers = 1
	_, top1, folded1 := profileOutputs(t, cfg)

	for _, workers := range []int{4, 8} {
		cfg := base
		cfg.req.Workers = workers
		_, top, folded := profileOutputs(t, cfg)
		if top != top1 {
			t.Errorf("workers=%d ranked profile differs from workers=1:\n%s", workers, diffLines(top1, top))
		}
		if folded != folded1 {
			t.Errorf("workers=%d folded profile differs from workers=1:\n%s", workers, diffLines(folded1, folded))
		}
	}

	checkSymexHotSpot(t, top1)
}

// checkSymexHotSpot asserts the ranked symex_steps section's top entry is
// the rejects-av verdict class with at least half the kind's total.
func checkSymexHotSpot(t *testing.T, top string) {
	t.Helper()
	lines := strings.Split(top, "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "== symex_steps:") {
			continue
		}
		if i+1 >= len(lines) {
			t.Fatal("symex_steps section has no rows")
		}
		row := lines[i+1]
		if !strings.Contains(row, "filter:rejects-av") {
			t.Errorf("top symex entry is not the reject class: %q", row)
		}
		fields := strings.Fields(row)
		share, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "%"), 64)
		if err != nil {
			t.Fatalf("unparseable share in %q: %v", row, err)
		}
		if share < 50 {
			t.Errorf("top symex entry holds %.1f%% of steps, want ≥50%%", share)
		}
		return
	}
	t.Fatalf("no symex_steps section in ranked profile:\n%s", top)
}

// TestProfileCacheInvariance pins the cache transparency claim: the ranked
// profile (which excludes cache-traffic bytes) is byte-identical with the
// cache off, cold and warm, and the full folded profile — cache bytes
// included — is byte-identical between the cold run that wrote the
// entries and the warm run that replayed them.
func TestProfileCacheInvariance(t *testing.T) {
	base := config{table: profileSweepTable(), format: "text", req: crashresist.Request{Scale: "paper", Seed: goldenSeed, Workers: 4}}

	_, topOff, _ := profileOutputs(t, base)

	cache, err := crashresist.OpenAnalysisCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold := base
	cold.req.Cache = cache
	_, topCold, foldedCold := profileOutputs(t, cold)

	warm := base
	warm.req.Cache = cache
	_, topWarm, foldedWarm := profileOutputs(t, warm)

	if topCold != topOff {
		t.Errorf("cold-cache ranked profile differs from cache-off:\n%s", diffLines(topOff, topCold))
	}
	if topWarm != topOff {
		t.Errorf("warm-cache ranked profile differs from cache-off:\n%s", diffLines(topOff, topWarm))
	}
	if foldedWarm != foldedCold {
		t.Errorf("warm folded profile differs from cold (cache bytes included):\n%s", diffLines(foldedCold, foldedWarm))
	}
}

// TestProfileChaosStable pins profile determinism under fault injection:
// the same -chaos-seed yields byte-identical folded profiles, retries and
// backoff included.
func TestProfileChaosStable(t *testing.T) {
	cfg := config{table: "3", format: "text", req: crashresist.Request{Scale: "paper", Seed: goldenSeed, Workers: 4, ChaosSeed: 7}}
	_, top1, folded1 := profileOutputs(t, cfg)
	_, top2, folded2 := profileOutputs(t, cfg)
	if folded1 != folded2 {
		t.Errorf("folded profile unstable across identical chaos runs:\n%s", diffLines(folded1, folded2))
	}
	if top1 != top2 {
		t.Errorf("ranked profile unstable across identical chaos runs:\n%s", diffLines(top1, top2))
	}
	if !strings.Contains(folded1, "retries;") && !strings.Contains(folded1, "\nretries") {
		// Retries are plan-dependent; only assert when the plan injected any.
		t.Logf("chaos plan injected no retries at this seed; folded:\n%.400s", folded1)
	}
}
