package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crashresist"
)

// update rewrites the golden files from the current (sequential) output:
//
//	go test ./cmd/crtables -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// goldenSeed pins the fixtures' ASLR layout; changing it invalidates every
// golden file.
const goldenSeed = 42

// emitString renders one artifact with a live profile and detector
// attached, so the goldens prove the observers never leak into table
// bytes.
func emitString(t *testing.T, table string, workers int) string {
	t.Helper()
	var buf bytes.Buffer
	cfg := config{table: table, format: "text", req: crashresist.Request{
		Scale:   "paper",
		Seed:    goldenSeed,
		Workers: workers,
		Profile: crashresist.NewProfile(),
		Detect:  crashresist.NewDetect(),
	}}
	if _, err := emit(&buf, cfg); err != nil {
		t.Fatalf("emit %s (workers=%d): %v", table, workers, err)
	}
	return buf.String()
}

// TestGolden snapshots the paper-scale crtables output for Tables I/II/III
// and the §V-B funnel, then proves the parallel pipelines reproduce the
// snapshot byte-for-byte at 1, 4 and 8 workers. Any scheduling dependence
// in the discovery pipelines — map-order leaks, append-under-lock merges,
// worker-env layout drift — shows up here as a diff.
func TestGolden(t *testing.T) {
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
			seq := emitString(t, tc.table, 1)
			path := filepath.Join("testdata", "golden", tc.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(seq), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if seq != string(want) {
				t.Errorf("sequential output differs from golden %s:\n%s", path, diffLines(string(want), seq))
			}
			for _, workers := range []int{4, 8} {
				got := emitString(t, tc.table, workers)
				if got != seq {
					t.Errorf("workers=%d output differs from workers=1:\n%s", workers, diffLines(seq, got))
				}
			}
		})
	}
}

// diffLines renders a minimal first-divergence diff for test failures.
func diffLines(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n-%s\n+%s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d lines, got %d", len(w), len(g))
}
