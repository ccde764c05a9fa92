package discover

import (
	"context"
	"testing"

	"crashresist/internal/targets"
)

func TestSEHPipelineIE(t *testing.T) {
	params := targets.SmallBrowserParams()
	br, err := targets.IE(params)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeSEH(context.Background(), Config{Seed: 6161}, br)
	if err != nil {
		t.Fatal(err)
	}

	// Totals must match the corpus plan (the analyses rediscover what
	// the generator encoded in real scope tables and filter code).
	wantH, wantF, wantAF, wantAH, wantP := br.Plan.Totals()
	if rep.TotalHandlers != wantH {
		t.Errorf("TotalHandlers = %d, want %d", rep.TotalHandlers, wantH)
	}
	if rep.TotalFilters != wantF {
		t.Errorf("TotalFilters = %d, want %d", rep.TotalFilters, wantF)
	}
	if rep.TotalAVFilters != wantAF {
		t.Errorf("TotalAVFilters = %d, want %d", rep.TotalAVFilters, wantAF)
	}
	if rep.TotalAVHandlers != wantAH {
		t.Errorf("TotalAVHandlers = %d, want %d", rep.TotalAVHandlers, wantAH)
	}
	if rep.TotalOnPath != wantP {
		t.Errorf("TotalOnPath = %d, want %d", rep.TotalOnPath, wantP)
	}
	if rep.TriggerEvents != uint64(params.TriggerTotal) {
		t.Errorf("TriggerEvents = %d, want %d", rep.TriggerEvents, params.TriggerTotal)
	}

	// Per-module rows must match the specs.
	for _, spec := range br.Plan.Specs {
		row, ok := rep.Row(spec.Name)
		if !ok {
			if spec.Handlers > 0 {
				t.Errorf("module %s missing from report", spec.Name)
			}
			continue
		}
		if row.Handlers != spec.Handlers || row.Filters != spec.Filters {
			t.Errorf("%s: handlers/filters = %d/%d, want %d/%d",
				spec.Name, row.Handlers, row.Filters, spec.Handlers, spec.Filters)
		}
		if row.AVHandlers != spec.AVHandlers {
			t.Errorf("%s: AVHandlers = %d, want %d", spec.Name, row.AVHandlers, spec.AVHandlers)
		}
		if row.OnPath != spec.OnPath {
			t.Errorf("%s: OnPath = %d, want %d", spec.Name, row.OnPath, spec.OnPath)
		}
		if row.AVFilters != spec.AVFilters {
			t.Errorf("%s: AVFilters = %d, want %d", spec.Name, row.AVFilters, spec.AVFilters)
		}
	}

	// Candidates must all be accepting and on path.
	if len(rep.Candidates) != wantP {
		t.Errorf("candidates = %d, want %d", len(rep.Candidates), wantP)
	}
	for _, c := range rep.Candidates {
		if c.Hits == 0 {
			t.Errorf("candidate %s/%d has no hits", c.Module, c.Scope)
		}
	}

	// Prior-work verification (§VII-A), IE side.
	pw := PriorWork(rep)
	if !pw.IECatchAllFound {
		t.Error("MUTX::Enter catch-all not rediscovered")
	}
	if !pw.IEPostUpdateNeedsManual {
		t.Error("post-update config filter not flagged for manual vetting")
	}
	if pw.FirefoxVEHMissed {
		t.Error("IE model should have no VEH registered")
	}
}

func TestSEHPipelineFirefoxVEHMiss(t *testing.T) {
	br, err := targets.Firefox(targets.SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeSEH(context.Background(), Config{Seed: 6262}, br)
	if err != nil {
		t.Fatal(err)
	}
	pw := PriorWork(rep)
	if !pw.FirefoxVEHMissed {
		t.Error("runtime-registered VEH not reported as missed")
	}
	// The ntdll primitive (RtlSafeRead's accepting filter) must appear
	// in the module inventory even though it is not on the IE-style
	// browse path.
	row, ok := rep.Row("ntdll.dll")
	if !ok || row.AVFilters == 0 {
		t.Errorf("ntdll row = %+v %v, want accepting filters", row, ok)
	}
}

func TestVEHScanExtensionFindsFirefoxHandler(t *testing.T) {
	// The §VII-A extension: static scanning for
	// AddVectoredExceptionHandler call sites recovers the Firefox guard
	// handler the scope-table pipeline misses.
	br, err := targets.Firefox(targets.SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeSEH(context.Background(), Config{Seed: 6363}, br)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.VEHFindings) == 0 {
		t.Fatal("no VEH registrations found statically")
	}
	found := false
	for _, f := range rep.VEHFindings {
		t.Logf("finding: %s", f)
		if f.Resolved && f.Module == "firefox.exe" {
			found = true
			if f.Verdict.String() != "accepts-av" {
				t.Errorf("verdict = %v, want accepts-av", f.Verdict)
			}
			if f.HandlerVA == 0 {
				t.Error("handler VA not recovered")
			}
		}
	}
	if !found {
		t.Error("firefox.exe registration not resolved")
	}
	pw := PriorWork(rep)
	if !pw.FirefoxVEHFoundByExtension {
		t.Error("extension result not surfaced in PriorWork")
	}
}

func TestVEHScanIEHasNone(t *testing.T) {
	br, err := targets.IE(targets.SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeSEH(context.Background(), Config{Seed: 6464}, br)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.VEHFindings) != 0 {
		t.Errorf("IE model has VEH findings: %v", rep.VEHFindings)
	}
	if PriorWork(rep).FirefoxVEHFoundByExtension {
		t.Error("extension flag set without findings")
	}
}
