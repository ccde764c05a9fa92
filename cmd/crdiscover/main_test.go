package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

func TestRunServerText(t *testing.T) {
	out, _, err := runString(t, "-target", "nginx")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "syscall pipeline report for nginx") {
		t.Errorf("missing report header:\n%s", out)
	}
	if !strings.Contains(out, "usable crash-resistant primitives") {
		t.Errorf("missing usable summary:\n%s", out)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if _, _, err := runString(t, "-target", "nginx", "-pipeline", "seh"); err == nil {
		t.Error("browser pipeline on a server target should fail")
	}
	if _, _, err := runString(t, "-target", "nginx", "-format", "xml"); err == nil {
		t.Error("unknown format should fail")
	}
	for _, args := range [][]string{{"-no-such-flag"}, {"-emit", "bogus=f"}} {
		if _, _, err := runString(t, args...); !errors.Is(err, cliflags.ErrUsage) {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
	}
}

// TestCacheDirSmoke covers the -cache-dir lifecycles: a fresh directory
// populates, a reused directory serves hits, and an unusable path warns
// on stderr while the analysis still succeeds — output identical in all
// three cases.
func TestCacheDirSmoke(t *testing.T) {
	baseline, _, err := runString(t, "-target", "nginx")
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	fresh, stderr, err := runString(t, "-target", "nginx", "-cache-dir", dir)
	if err != nil {
		t.Fatalf("fresh cache dir: %v", err)
	}
	if fresh != baseline {
		t.Error("fresh-cache output differs from uncached output")
	}
	if strings.Contains(stderr, "cache disabled") {
		t.Errorf("fresh cache dir warned:\n%s", stderr)
	}
	var entries int
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".cce") {
			entries++
		}
		return nil
	})
	if entries == 0 {
		t.Error("fresh run published no cache entries")
	}

	reused, _, err := runString(t, "-target", "nginx", "-cache-dir", dir)
	if err != nil {
		t.Fatalf("reused cache dir: %v", err)
	}
	if reused != baseline {
		t.Error("warm-cache output differs from uncached output")
	}

	occupied := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(occupied, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	degraded, stderr, err := runString(t, "-target", "nginx", "-cache-dir", filepath.Join(occupied, "cache"))
	if err != nil {
		t.Fatalf("unusable cache dir must degrade, got: %v", err)
	}
	if !strings.Contains(stderr, "cache disabled") {
		t.Errorf("unusable cache dir did not warn:\n%s", stderr)
	}
	if degraded != baseline {
		t.Error("degraded-cache output differs from uncached output")
	}
}

// TestCacheDirBrowserPipelines runs the seh and api pipelines twice
// against one cache dir, asserting byte-identical stdout.
func TestCacheDirBrowserPipelines(t *testing.T) {
	for _, pl := range []string{"seh", "api"} {
		pl := pl
		t.Run(pl, func(t *testing.T) {
			dir := t.TempDir()
			cold, _, err := runString(t, "-target", "ie", "-pipeline", pl, "-cache-dir", dir)
			if err != nil {
				t.Fatal(err)
			}
			warm, _, err := runString(t, "-target", "ie", "-pipeline", pl, "-cache-dir", dir)
			if err != nil {
				t.Fatal(err)
			}
			if warm != cold {
				t.Error("warm run output differs from cold run output")
			}
		})
	}
}

// TestEmitKeepsReport pins that the report owns stdout: emitting every
// artifact kind leaves it byte-identical to a run that emits nothing, and
// every artifact lands in its own non-empty file.
func TestEmitKeepsReport(t *testing.T) {
	args := []string{"-target", "ie", "-pipeline", "seh"}
	plain, _, err := runString(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	specs := []string{"profile:top", "profile:folded", "profile:json", "detect:top", "detect:json", "stats:text", "trace:json"}
	for _, spec := range specs {
		args = append(args, "-emit", spec+"="+filepath.Join(dir, strings.ReplaceAll(spec, ":", ".")))
	}
	emitted, _, err := runString(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if emitted != plain {
		t.Error("emitting artifacts changed the report on stdout")
	}
	for _, spec := range specs {
		out, err := os.ReadFile(filepath.Join(dir, strings.ReplaceAll(spec, ":", ".")))
		if err != nil || len(out) == 0 {
			t.Errorf("-emit %s wrote no artifact: %v", spec, err)
		}
	}
}

// TestProfileFlag checks -emit profile writes the selected rendering to
// its file, byte-stable across repeated identical runs.
func TestProfileFlag(t *testing.T) {
	dir := t.TempDir()
	profile := func(spec string) string {
		t.Helper()
		path := filepath.Join(dir, "profile")
		if _, _, err := runString(t, "-target", "ie", "-pipeline", "seh", "-emit", spec+"="+path); err != nil {
			t.Fatal(err)
		}
		out, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	folded1 := profile("profile:folded")
	if !strings.Contains(folded1, "symex_steps;seh;symex;iexplore;filter:") {
		t.Errorf("folded output missing symex verdict-class stacks:\n%.300s", folded1)
	}
	if folded2 := profile("profile:folded"); folded1 != folded2 {
		t.Error("identical runs produced different folded profiles")
	}

	if top := profile("profile:top"); !strings.Contains(top, "== symex_steps: total") {
		t.Errorf("-emit profile:top missing ranked sections:\n%.300s", top)
	}

	if _, _, err := runString(t, "-target", "ie", "-emit", "profile:bogus="+filepath.Join(dir, "x")); err == nil {
		t.Error("unknown profile mode accepted")
	}
}
