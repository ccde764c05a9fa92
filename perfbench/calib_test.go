package main

import "testing"

// TestRefLoopIsFixedWork pins that the reference loop does the same work
// on every call: from a zeroed region it returns the same value, so its
// time can only move with the host.
func TestRefLoopIsFixedWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reference loop twice")
	}
	a := refLoop(make([]byte, refWalkBytes))
	b := refLoop(make([]byte, refWalkBytes))
	if a != b {
		t.Errorf("reference loop returned %#x, then %#x", a, b)
	}
}

func TestSpeedometerScale(t *testing.T) {
	for _, tc := range []struct {
		samples []float64
		want    float64
	}{
		{[]float64{refSeconds}, 1},                                   // the tuning host's quiet speed
		{[]float64{2 * refSeconds, 2 * refSeconds}, 0.5},             // a host half as fast
		{[]float64{refSeconds, 2 * refSeconds, 9 * refSeconds}, 0.5}, // the median, not the mean
	} {
		sp := speedometer{tc.samples}
		if got := sp.scale(); !near(got, tc.want) {
			t.Errorf("scale of %v = %v, want %v", tc.samples, got, tc.want)
		}
	}
}
