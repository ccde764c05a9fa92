package main

import (
	"os"
	"strings"
	"testing"
)

func TestParseStealFixture(t *testing.T) {
	f, err := os.Open("testdata/proc_stat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := parseSteal(f)
	if err != nil {
		t.Fatal(err)
	}
	// The aggregate line's eighth value is 1374 ticks of USER_HZ=100.
	if !near(got, 13.74) {
		t.Errorf("steal = %v s, want 13.74", got)
	}
}

func TestParseStealRejectsMalformed(t *testing.T) {
	for _, doc := range []string{
		"",
		"cpu0 1 2 3 4 5 6 7 8\n",
		"cpu 1 2 3 4 5 6 7\n",
		"cpu 1 2 3 4 5 6 7 x\n",
	} {
		if _, err := parseSteal(strings.NewReader(doc)); err == nil {
			t.Errorf("parseSteal(%q) accepted", doc)
		}
	}
}

func TestParseRunDelay(t *testing.T) {
	got, err := parseRunDelay("7613920 2500000000 11\n")
	if err != nil {
		t.Fatal(err)
	}
	if !near(got, 2.5) {
		t.Errorf("run delay = %v s, want 2.5", got)
	}
	for _, line := range []string{"", "1 2", "1 x 3", "1 2 3 4"} {
		if _, err := parseRunDelay(line); err == nil {
			t.Errorf("parseRunDelay(%q) accepted", line)
		}
	}
}

func TestStealFreeWall(t *testing.T) {
	for _, tc := range []struct {
		name             string
		wall, cpu, steal float64
		want             float64
	}{
		{"no steal", 3, 5.4, 0, 3},
		// Two vCPUs, each stolen for 0.5 s of a 2.5 s operation.
		{"stolen", 2.5, 3.6, 1, 2},
		// More steal than the wall time allows, from tick rounding: the
		// operation took at least its CPU time over both vCPUs.
		{"bounded", 0.01, 0.018, 0.02, 0.009},
	} {
		if got := stealFreeWall(tc.wall, tc.cpu, tc.steal, 2); !near(got, tc.want) {
			t.Errorf("%s: stealFreeWall(%v, %v, %v, 2) = %v, want %v", tc.name, tc.wall, tc.cpu, tc.steal, got, tc.want)
		}
	}
}
