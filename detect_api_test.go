package crashresist

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// TestRunIncludeDetect covers the wire surface: a request with
// IncludeDetect gets the run's detectability report embedded in the Result
// (surviving a JSON round trip); one without stays clean.
func TestRunIncludeDetect(t *testing.T) {
	req := Request{Target: "nginx", Seed: 42, Scale: "small", IncludeDetect: true}
	res, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detect == nil {
		t.Fatal("IncludeDetect set but Result.Detect is nil")
	}
	if res.Detect.Schema != DetectSchema {
		t.Errorf("detect schema = %q", res.Detect.Schema)
	}
	if len(res.Detect.Sections) != 1 || res.Detect.Sections[0].Pipeline != "syscall" {
		t.Fatalf("detect sections = %+v", res.Detect.Sections)
	}
	sec := res.Detect.Sections[0]
	if len(sec.Rows) == 0 {
		t.Error("embedded report has no detectability rows")
	}
	if sec.Baseline == nil {
		t.Error("embedded report has no benign baseline")
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Detect == nil || len(back.Detect.Sections) != len(res.Detect.Sections) {
		t.Errorf("detect report lost in round trip: %+v", back.Detect)
	}

	plain, err := Run(context.Background(), Request{Target: "nginx", Seed: 42, Scale: "small"})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Detect != nil {
		t.Error("Result.Detect present without IncludeDetect")
	}
}

// TestDetectNeverChangesReport: the same request produces byte-identical
// report JSON with and without the detection engine watching. Run
// wall-clock stats are stripped first — they differ between ANY two runs
// and are already kept out of artifact bytes by design.
func TestDetectNeverChangesReport(t *testing.T) {
	for _, tc := range []struct {
		pipeline, target string
	}{
		{"syscall", "nginx"},
		{"api", "ie"},
		{"seh", "ie"},
	} {
		tc := tc
		t.Run(tc.pipeline+"/"+tc.target, func(t *testing.T) {
			run := func(d *Detect) []byte {
				t.Helper()
				req := Request{Pipeline: tc.pipeline, Target: tc.target, Seed: 42, Scale: "small", Detect: d}
				res, err := Run(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(res.Report())
				if err != nil {
					t.Fatal(err)
				}
				return stripRunStats(t, raw)
			}
			without := run(nil)
			with := run(NewDetect())
			if !bytes.Equal(without, with) {
				t.Error("attaching the detection engine changed the report bytes")
			}
		})
	}
}

// stripRunStats removes every "stats" key from a marshaled report, the
// same normalization the service equivalence tests use.
func stripRunStats(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var walk func(v any)
	walk = func(v any) {
		switch vv := v.(type) {
		case map[string]any:
			delete(vv, "stats")
			for _, child := range vv {
				walk(child)
			}
		case []any:
			for _, child := range vv {
				walk(child)
			}
		}
	}
	walk(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDetectDeterministicWorkersAndCache is the engine's invariance gate:
// for every pipeline the embedded detectability report — rows, baseline,
// live series, and the DetectionEvent sequence — is byte-identical at 1, 4
// and 8 workers and with the analysis cache off, cold, or warm.
func TestDetectDeterministicWorkersAndCache(t *testing.T) {
	for _, tc := range []struct {
		pipeline, target string
	}{
		{"syscall", "nginx"},
		{"api", "ie"},
		{"seh", "ie"},
	} {
		tc := tc
		t.Run(tc.pipeline+"/"+tc.target, func(t *testing.T) {
			detectJSON := func(workers int, cache *AnalysisCache) []byte {
				t.Helper()
				req := Request{
					Pipeline: tc.pipeline, Target: tc.target, Seed: 42, Scale: "small",
					Workers: workers, Cache: cache, IncludeDetect: true,
				}
				res, err := Run(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(res.Detect)
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}

			want := detectJSON(1, nil)
			cache, err := OpenAnalysisCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if got := detectJSON(1, cache); !bytes.Equal(got, want) {
				t.Errorf("cold-cache detect report differs from cache-off:\n%s\nvs\n%s", got, want)
			}
			for _, workers := range []int{1, 4, 8} {
				if got := detectJSON(workers, cache); !bytes.Equal(got, want) {
					t.Errorf("warm-cache detect report (workers=%d) differs from cache-off baseline", workers)
				}
			}
		})
	}
}

// TestSharedDetectAccumulates: one observer across two identical runs holds
// exactly twice each row's probe totals while every derived ratio — fault
// rate, stealth margin, trip ticks — stays identical; n-fold accumulation
// never shifts a verdict.
func TestSharedDetectAccumulates(t *testing.T) {
	one := NewDetect()
	if _, err := Run(context.Background(), Request{Target: "nginx", Seed: 42, Scale: "small", Detect: one}); err != nil {
		t.Fatal(err)
	}
	two := NewDetect()
	for i := 0; i < 2; i++ {
		if _, err := Run(context.Background(), Request{Target: "nginx", Seed: 42, Scale: "small", Detect: two}); err != nil {
			t.Fatal(err)
		}
	}
	s1, s2 := one.Snapshot(), two.Snapshot()
	if len(s1.Sections) == 0 || len(s1.Sections) != len(s2.Sections) {
		t.Fatalf("section counts: one run %d, two runs %d", len(s1.Sections), len(s2.Sections))
	}
	r1, r2 := s1.Sections[0].Rows, s2.Sections[0].Rows
	if len(r1) == 0 || len(r1) != len(r2) {
		t.Fatalf("row counts: one run %d, two runs %d", len(r1), len(r2))
	}
	for i := range r1 {
		a, b := r1[i], r2[i]
		if b.Probes != 2*a.Probes || b.Faults != 2*a.Faults || b.Ticks != 2*a.Ticks {
			t.Errorf("row %s: totals did not double: %+v vs %+v", a.Primitive, a, b)
		}
		if b.FaultRate != a.FaultRate || b.StealthMargin != a.StealthMargin || b.Undetectable != a.Undetectable {
			t.Errorf("row %s: derived ratios drifted under accumulation", a.Primitive)
		}
		if len(a.Trips) != len(b.Trips) {
			t.Errorf("row %s: trip panel changed: %+v vs %+v", a.Primitive, a.Trips, b.Trips)
		}
	}
}

// TestDetectTableIStealthMargins is the §VII-C acceptance criterion at
// test scale. Every Table I server's benign request-handling baseline must
// raise zero detections, and every faulting primitive must carry a finite
// stealth margin and fall on the right side of the paper's dichotomy: a
// full-speed scan either trips the §VII-C default, or the primitive's own
// probe loop is so slow (the cherokee/memcached timing channels spend
// virtual seconds per probe) that the sustained rate genuinely stays under
// the threshold — stealthy only because the scan takes impractically long.
func TestDetectTableIStealthMargins(t *testing.T) {
	servers, err := Servers()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetect()
	for _, srv := range servers {
		if _, err := Run(context.Background(), Request{Server: srv, Seed: 42, Detect: d}); err != nil {
			t.Fatalf("%s: %v", srv.Name, err)
		}
	}
	def := DefaultCalibration()
	for _, srv := range servers {
		sec := d.Section("syscall", srv.Name)
		if sec == nil {
			t.Errorf("%s: no detection section", srv.Name)
			continue
		}
		if sec.Baseline == nil {
			t.Errorf("%s: no benign baseline", srv.Name)
		} else if len(sec.Baseline.Events) != 0 {
			t.Errorf("%s: benign baseline flagged: %+v", srv.Name, sec.Baseline.Events)
		}
		flagged := 0
		for _, row := range sec.Rows {
			if row.Faults == 0 {
				continue
			}
			if row.StealthMargin == 0 {
				t.Errorf("%s/%s: faulting primitive with no stealth margin", srv.Name, row.Primitive)
			}
			tripped := false
			for _, trip := range row.Trips {
				if trip.Detector == def.Name {
					tripped = true
				}
			}
			windowFaults := row.Faults * def.WindowTicks / row.Ticks
			if tripped {
				flagged++
				if windowFaults <= def.Threshold {
					t.Errorf("%s/%s: tripped at %d faults/window, at or under threshold %d",
						srv.Name, row.Primitive, windowFaults, def.Threshold)
				}
			} else if windowFaults > def.Threshold {
				t.Errorf("%s/%s: sustains %d faults/window over threshold %d yet never trips",
					srv.Name, row.Primitive, windowFaults, def.Threshold)
			}
		}
		if flagged == 0 {
			t.Errorf("%s: no primitive trips the §VII-C default at full speed", srv.Name)
		}
	}
}

// TestSharedDetectRunSection: two runs sharing one observer and one
// registry sink. Each run's RunStats section carries only that run's own
// inputs, the shared observer holds both runs, and the registry — which
// folds every flushed section — ends up holding exactly what the observer
// holds, not the observer's running totals summed once per run.
func TestSharedDetectRunSection(t *testing.T) {
	d := NewDetect()
	reg := NewMetricsRegistry()
	probes := func(sec *DetectSection) uint64 {
		t.Helper()
		for _, row := range sec.Rows {
			if row.Primitive == "recv/arg1" {
				return row.Probes
			}
		}
		t.Fatalf("no recv/arg1 row in section %s/%s", sec.Pipeline, sec.Target)
		return 0
	}
	for i := 0; i < 2; i++ {
		req := Request{Target: "nginx", Seed: 42, Detect: d, Sinks: []MetricSink{reg}}
		res, err := Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		sec := res.Syscall.Stats.Detect
		if sec == nil {
			t.Fatalf("run %d: RunStats carries no detect section", i)
		}
		if got := probes(sec); got != 1 {
			t.Errorf("run %d: RunStats recv/arg1 probes = %d, want 1 (the run's own)", i, got)
		}
	}
	want := d.Snapshot()
	if got := probes(&want.Sections[0]); got != 2 {
		t.Errorf("shared observer recv/arg1 probes = %d, want 2", got)
	}
	got := reg.DetectReport()
	if !reflect.DeepEqual(got, want) {
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		t.Errorf("registry detect report differs from the shared observer:\n got  %s\n want %s", gj, wj)
	}
}
