package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crashresist"
	"crashresist/cmd/internal/cliflags"
)

// runString drives the whole command and returns stdout, stderr and the
// error.
func runString(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

// readFile returns a file's contents, failing the test when it is missing.
func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestUnknownTarget checks that a bogus -target fails with a one-line error
// wrapping the ErrBadParams sentinel (main turns that into exit code 1).
func TestUnknownTarget(t *testing.T) {
	_, _, err := runString(t, "-target", "bogus")
	if err == nil {
		t.Fatal("run(-target bogus) succeeded, want error")
	}
	if !errors.Is(err, crashresist.ErrBadParams) {
		t.Errorf("error %v does not wrap ErrBadParams", err)
	}
}

// TestBadFlag checks that flag parse failures, a bad -emit value included,
// surface as usage errors (exit code 2) rather than exiting in run.
func TestBadFlag(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-emit", "metrics=f"}} {
		_, stderr, err := runString(t, args...)
		if !errors.Is(err, cliflags.ErrUsage) {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
		if !strings.Contains(stderr, "Usage of crprobe") {
			t.Errorf("run(%q) printed no usage:\n%s", args, stderr)
		}
	}
}

// TestSmokeNginx runs the nginx proof of concept end to end: boot, plant a
// hidden region, locate it through the oracle without crashes.
func TestSmokeNginx(t *testing.T) {
	if _, _, err := runString(t, "-target", "nginx"); err != nil {
		t.Fatalf("run(-target nginx): %v", err)
	}
}

// TestBadFormat checks -format validation wraps ErrBadParams.
func TestBadFormat(t *testing.T) {
	_, _, err := runString(t, "-format", "xml")
	if !errors.Is(err, crashresist.ErrBadParams) {
		t.Errorf("run(-format xml) = %v, want ErrBadParams", err)
	}
}

// TestJSONOutput checks -format=json emits only the machine-readable result
// document on stdout, with the located region and the run stats attached.
func TestJSONOutput(t *testing.T) {
	stdout, _, err := runString(t, "-target", "nginx", "-format", "json")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var doc probeDoc
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("stdout not valid JSON: %v\n%s", err, stdout)
	}
	if doc.Target != "nginx" || !doc.Located {
		t.Errorf("doc = %+v, want located nginx result", doc)
	}
	if doc.LocatedVA != doc.HiddenVA || doc.HiddenVA == 0 {
		t.Errorf("located %#x, hidden %#x", doc.LocatedVA, doc.HiddenVA)
	}
	if doc.Probes == 0 || doc.Crashes != 0 {
		t.Errorf("probes=%d crashes=%d, want >0 probes and zero crashes", doc.Probes, doc.Crashes)
	}
	if doc.Stats == nil {
		t.Fatal("doc carries no run stats")
	}
	if doc.Stats.Counter(crashresist.CtrProbes) == 0 {
		t.Error("stats counted no probes")
	}
	// The narrative must not pollute the JSON stream.
	if strings.Contains(stdout, "[attack]") {
		t.Error("narrative lines leaked into JSON stdout")
	}
}

// TestJSONOutputCherokee covers the timing-side-channel result shape.
func TestJSONOutputCherokee(t *testing.T) {
	stdout, _, err := runString(t, "-target", "cherokee", "-format", "json")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var doc probeDoc
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("stdout not valid JSON: %v", err)
	}
	if doc.BaselineTicks == 0 || doc.MappedTicks == 0 || doc.UnmappedTicks == 0 {
		t.Errorf("timing fields = %d/%d/%d, want all non-zero",
			doc.BaselineTicks, doc.MappedTicks, doc.UnmappedTicks)
	}
	if doc.UnmappedTicks <= doc.MappedTicks {
		t.Errorf("unmapped %d not slower than mapped %d", doc.UnmappedTicks, doc.MappedTicks)
	}
}

// TestEmitKeepsReport pins that the narrative owns stdout: emitting every
// artifact kind leaves it byte-identical to a run that emits nothing, and
// every artifact lands in its own non-empty file.
func TestEmitKeepsReport(t *testing.T) {
	plain, _, err := runString(t, "-target", "nginx")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	args := []string{"-target", "nginx"}
	specs := []string{"profile:top", "profile:folded", "profile:json", "detect:top", "detect:json", "stats:text", "trace:json"}
	for _, spec := range specs {
		args = append(args, "-emit", spec+"="+filepath.Join(dir, strings.ReplaceAll(spec, ":", ".")))
	}
	emitted, _, err := runString(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if emitted != plain {
		t.Errorf("emitting artifacts changed stdout:\n%s\nwant:\n%s", emitted, plain)
	}
	for _, spec := range specs {
		if readFile(t, filepath.Join(dir, strings.ReplaceAll(spec, ":", "."))) == "" {
			t.Errorf("-emit %s wrote an empty file", spec)
		}
	}
}

// TestMetricsFlag checks -emit stats writes the run-stats block to its
// file and leaves stdout's narrative intact.
func TestMetricsFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.txt")
	stdout, _, err := runString(t, "-target", "nginx", "-emit", "stats="+path)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	stats := readFile(t, path)
	if !strings.Contains(stats, "run stats") {
		t.Errorf("stats file missing run stats block:\n%s", stats)
	}
	if !strings.Contains(stats, "probes=") {
		t.Errorf("stats file missing probe counter:\n%s", stats)
	}
	if !strings.Contains(stdout, "information hiding bypassed") {
		t.Errorf("stdout narrative missing:\n%s", stdout)
	}
}

// TestProfileFlag checks -emit profile writes the probe pipeline's
// boot/scan cost split.
func TestProfileFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profile.folded")
	if _, _, err := runString(t, "-target", "nginx", "-emit", "profile:folded="+path); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := readFile(t, path)
	for _, want := range []string{
		"vm_instructions;probe;boot;nginx;env ",
		"vm_instructions;probe;scan;nginx;",
		"clock_ticks;probe;scan;nginx;",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("folded profile missing %q:\n%s", want, out)
		}
	}
	if _, _, err := runString(t, "-target", "nginx", "-emit", "profile:bogus="+path); err == nil {
		t.Error("unknown profile mode accepted")
	}
}
