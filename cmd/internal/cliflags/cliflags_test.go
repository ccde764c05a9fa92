package cliflags

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crashresist"
)

// TestEmitSet table-drives Emit.Set over every kind and mode, the default
// modes and the malformed values, and checks that a kind's observer exists
// exactly when that kind is requested.
func TestEmitSet(t *testing.T) {
	cases := []struct {
		value      string
		kind, mode string // the parsed output; empty when Set must fail
		profile    bool
		detect     bool
	}{
		{value: "profile:top=f", kind: "profile", mode: "top", profile: true},
		{value: "profile:folded=f", kind: "profile", mode: "folded", profile: true},
		{value: "profile:json=f", kind: "profile", mode: "json", profile: true},
		{value: "profile=f", kind: "profile", mode: "top", profile: true},
		{value: "detect:top=f", kind: "detect", mode: "top", detect: true},
		{value: "detect:json=f", kind: "detect", mode: "json", detect: true},
		{value: "detect=f", kind: "detect", mode: "top", detect: true},
		{value: "stats:text=f", kind: "stats", mode: "text"},
		{value: "stats=f", kind: "stats", mode: "text"},
		{value: "trace:json=f", kind: "trace", mode: "json"},
		{value: "trace=f", kind: "trace", mode: "json"},

		{value: "profile:top"},
		{value: "profile:top="},
		{value: "=f"},
		{value: "metrics=f"},
		{value: "profile:bogus=f"},
		{value: "detect:folded=f"},
		{value: "stats:json=f"},
	}
	for _, tc := range cases {
		t.Run(tc.value, func(t *testing.T) {
			var e Emit
			err := e.Set(tc.value)
			if tc.kind == "" {
				if !errors.Is(err, crashresist.ErrBadParams) {
					t.Fatalf("Set(%q) = %v, want ErrBadParams", tc.value, err)
				}
				if len(e.outs) != 0 || e.Profile != nil || e.Detect != nil {
					t.Errorf("rejected Set(%q) left state behind: %+v", tc.value, e)
				}
				return
			}
			if err != nil {
				t.Fatalf("Set(%q) = %v", tc.value, err)
			}
			if len(e.outs) != 1 || e.outs[0].kind != tc.kind || e.outs[0].mode != tc.mode || e.outs[0].path != "f" {
				t.Errorf("Set(%q) parsed %+v, want %s:%s=f", tc.value, e.outs, tc.kind, tc.mode)
			}
			if (e.Profile != nil) != tc.profile {
				t.Errorf("Set(%q): profile attached = %v, want %v", tc.value, e.Profile != nil, tc.profile)
			}
			if (e.Detect != nil) != tc.detect {
				t.Errorf("Set(%q): detect attached = %v, want %v", tc.value, e.Detect != nil, tc.detect)
			}
		})
	}
}

// TestEmitWrite checks that a repeated kind shares one observer and that
// an unwritable PATH fails the write, naming the artifact.
func TestEmitWrite(t *testing.T) {
	dir := t.TempDir()
	var e Emit
	if err := e.Set("profile:folded=" + filepath.Join(dir, "p.folded")); err != nil {
		t.Fatal(err)
	}
	first := e.Profile
	if err := e.Set("profile:json=" + filepath.Join(dir, "p.json")); err != nil {
		t.Fatal(err)
	}
	if e.Profile != first {
		t.Error("a second profile output replaced the live profile")
	}
	if err := e.Write(nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"p.folded", "p.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Error(err)
		}
	}

	var bad Emit
	if err := bad.Set("stats=" + filepath.Join(dir, "no-such-dir", "stats")); err != nil {
		t.Fatal(err)
	}
	if err := bad.Write(nil); err == nil || !strings.Contains(err.Error(), "-emit stats:text") {
		t.Errorf("Write to an unusable PATH = %v, want an -emit stats:text error", err)
	}
}

// TestParseMarksUsageErrors checks the parse helper: an unknown flag and a
// bad -emit come back as usage errors, -h as flag.ErrHelp.
func TestParseMarksUsageErrors(t *testing.T) {
	parse := func(args ...string) error {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var e Emit
		e.Register(fs)
		return Parse(fs, args)
	}
	if err := parse("-emit", "stats=f"); err != nil {
		t.Errorf("good flags: %v", err)
	}
	for _, args := range [][]string{{"-no-such-flag"}, {"-emit", "bogus=f"}, {"-emit", "stats"}} {
		if err := parse(args...); !errors.Is(err, ErrUsage) {
			t.Errorf("Parse(%q) = %v, want ErrUsage", args, err)
		}
	}
	if err := parse("-h"); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("Parse(-h) = %v, want flag.ErrHelp", err)
	}
}

// TestExitCode pins the one exit-code convention of every command.
func TestExitCode(t *testing.T) {
	cases := []struct {
		err    error
		code   int
		stderr string
	}{
		{nil, 0, ""},
		{flag.ErrHelp, 0, ""},
		{fmt.Errorf("%w: %w", ErrUsage, errors.New("flag provided but not defined: -x")), 2, ""},
		{fmt.Errorf("%w: unknown -format %q", crashresist.ErrBadParams, "xml"), 1, "tool: bad parameters: unknown -format \"xml\"\n"},
	}
	for _, tc := range cases {
		var stderr bytes.Buffer
		if code := ExitCode(&stderr, "tool", tc.err); code != tc.code {
			t.Errorf("ExitCode(%v) = %d, want %d", tc.err, code, tc.code)
		}
		if stderr.String() != tc.stderr {
			t.Errorf("ExitCode(%v) printed %q, want %q", tc.err, stderr.String(), tc.stderr)
		}
	}
}

// TestOpenCache covers the commands' degrade-don't-fail contract for
// -cache-dir: empty means off, a usable path opens, an unusable path warns
// to stderr and returns nil so the run proceeds uncached.
func TestOpenCache(t *testing.T) {
	var warnings bytes.Buffer
	off := Analysis{}
	if c := off.OpenCache(&warnings, "tool"); c != nil {
		t.Error("empty dir should disable the cache")
	}
	if warnings.Len() != 0 {
		t.Errorf("empty dir warned: %s", warnings.String())
	}

	dir := t.TempDir()
	usable := Analysis{CacheDir: dir}
	c := usable.OpenCache(&warnings, "tool")
	if c == nil {
		t.Fatal("usable dir did not open")
	}
	if c.Dir() != dir {
		t.Errorf("cache rooted at %q, want %q", c.Dir(), dir)
	}
	if warnings.Len() != 0 {
		t.Errorf("usable dir warned: %s", warnings.String())
	}

	occupied := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(occupied, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	unusable := Analysis{CacheDir: filepath.Join(occupied, "cache")}
	if c := unusable.OpenCache(&warnings, "tool"); c != nil {
		t.Error("unusable dir should return nil")
	}
	if !strings.Contains(warnings.String(), "cache disabled") {
		t.Errorf("unusable dir did not warn: %q", warnings.String())
	}
}
