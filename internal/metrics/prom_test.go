package metrics

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"crashresist/internal/prof"
)

// registryWithRun returns a registry holding one traced run.
func registryWithRun(t *testing.T) *Registry {
	t.Helper()
	g := NewRegistry()
	stats := buildTracedRun(t, 2)
	if err := g.Flush(stats); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRegistryPrometheusExposition(t *testing.T) {
	g := registryWithRun(t)
	var buf strings.Builder
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`crashresist_pool_tasks_total{pipeline="seh",target="iexplore"} 4`,
		`crashresist_runs_total{pipeline="seh",target="iexplore"} 1`,
		`crashresist_last_run_wall_seconds{pipeline="seh",target="iexplore"}`,
		`crashresist_stage_latency_ticks{pipeline="seh",target="iexplore",stage="symex",quantile="0.5"}`,
		`crashresist_stage_latency_ticks{pipeline="seh",target="iexplore",stage="symex",quantile="0.99"}`,
		`crashresist_stage_latency_ticks_sum{pipeline="seh",target="iexplore",stage="symex"} 1000`,
		`crashresist_stage_latency_ticks_count{pipeline="seh",target="iexplore",stage="symex"} 4`,
		`,le="+Inf"} 4`,
		"# TYPE crashresist_runs_total counter",
		"# TYPE crashresist_stage_latency_ticks summary",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryAccumulatesAcrossRuns(t *testing.T) {
	g := NewRegistry()
	for i := 0; i < 3; i++ {
		if err := g.Flush(buildTracedRun(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	var buf strings.Builder
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `crashresist_runs_total{pipeline="seh",target="iexplore"} 3`) {
		t.Errorf("runs_total not accumulated:\n%s", out)
	}
	if !strings.Contains(out, `crashresist_stage_latency_ticks_count{pipeline="seh",target="iexplore",stage="symex"} 12`) {
		t.Errorf("histogram count not merged across runs:\n%s", out)
	}
	if got := len(g.Runs()); got != 3 {
		t.Errorf("retained runs = %d, want 3", got)
	}
}

func TestRegistryRecentRunRing(t *testing.T) {
	g := NewRegistry()
	for i := 0; i < tracedRuns+5; i++ {
		if err := g.Flush(buildTracedRun(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(g.Runs()); got != tracedRuns {
		t.Errorf("ring holds %d runs, want %d", got, tracedRuns)
	}
}

func TestRegistryExpositionStable(t *testing.T) {
	g := registryWithRun(t)
	var a, b strings.Builder
	if err := g.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := g.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("consecutive scrapes of an idle registry differ")
	}
}

func TestRegistryHandlerEndpoints(t *testing.T) {
	g := registryWithRun(t)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "0.0.4") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	if !strings.Contains(body, "crashresist_runs_total") {
		t.Errorf("/metrics missing runs_total:\n%s", body)
	}

	body, ctype = get("/trace.json")
	if ctype != "application/json" {
		t.Errorf("/trace.json content type = %q", ctype)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace.json not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Error("/trace.json missing traceEvents")
	}

	body, _ = get("/healthz")
	if body != "ok\n" {
		t.Errorf("/healthz = %q", body)
	}
}

// TestFaultEventFamily proves the per-process fault-event time series
// reaches the exposition: tick buckets become one labeled series each,
// sorted, and accumulate across runs.
func TestFaultEventFamily(t *testing.T) {
	g := NewRegistry()
	stats := &RunStats{
		Pipeline:    "syscall",
		Target:      "nginx",
		FaultEvents: map[uint64]uint64{3: 2, 1: 5},
	}
	if err := g.Flush(stats); err != nil {
		t.Fatal(err)
	}
	if err := g.Flush(stats); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE crashresist_fault_events_total counter",
		`crashresist_fault_events_total{pipeline="syscall",target="nginx",tick_bucket="1"} 10`,
		`crashresist_fault_events_total{pipeline="syscall",target="nginx",tick_bucket="3"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, `tick_bucket="1"`) > strings.Index(out, `tick_bucket="3"`) {
		t.Error("fault-event series not sorted by bucket")
	}
}

// TestProfileEndpoint exercises the /profile route in all three formats.
func TestProfileEndpoint(t *testing.T) {
	g := registryWithRun(t)
	p := prof.New()
	p.Add(prof.Stack{Pipeline: "seh", Stage: "symex", Target: "ie", Unit: "filter:rejects-av"}, prof.KindSymexSteps, 41)
	g.SetProfile(p)
	if g.Profile() != p {
		t.Fatal("Profile() did not return the attached profile")
	}

	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	body := get("/profile")
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/profile not valid JSON: %v\n%s", err, body)
	}
	if doc["schema"] != prof.SchemaV1 {
		t.Errorf("/profile schema = %v", doc["schema"])
	}

	if body = get("/profile?format=folded"); !strings.Contains(body, "symex_steps;seh;symex;ie;filter:rejects-av 41") {
		t.Errorf("folded profile = %q", body)
	}
	if body = get("/profile?format=top"); !strings.Contains(body, "== symex_steps: total 41") {
		t.Errorf("top profile = %q", body)
	}
}

// TestProfileEndpointEmpty: a registry with no profile serves an empty
// document, not an error.
func TestProfileEndpointEmpty(t *testing.T) {
	g := registryWithRun(t)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/profile without a profile: status %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !json.Valid(body) {
		t.Errorf("/profile without a profile not valid JSON: %s", body)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var g *Registry
	if err := g.Flush(&RunStats{}); err != nil {
		t.Fatal(err)
	}
	if err := g.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := g.Runs(); got != nil {
		t.Errorf("nil registry runs = %v", got)
	}
}
