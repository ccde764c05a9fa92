package main

import (
	"bytes"
	"testing"

	"crashresist"
	"crashresist/cmd/internal/cliflags"
)

// TestEmitWithCacheLifecycle runs one artifact at small scale through the
// fresh → reused → disabled cache lifecycle and checks the bytes never
// change. A nil cache (what -cache-dir opens to for a broken path) is the
// disabled stage.
func TestEmitWithCacheLifecycle(t *testing.T) {
	render := func(cache *crashresist.AnalysisCache) string {
		var buf bytes.Buffer
		cfg := config{table: "1", format: "text", req: crashresist.Request{Scale: "small", Seed: 42, Cache: cache}}
		if _, err := emit(&buf, cfg); err != nil {
			t.Fatalf("emit: %v", err)
		}
		return buf.String()
	}

	baseline := render(nil)

	flags := cliflags.Analysis{CacheDir: t.TempDir()}
	var warnings bytes.Buffer
	cache := flags.OpenCache(&warnings, "crtables")
	if fresh := render(cache); fresh != baseline {
		t.Error("fresh-cache emit differs from uncached emit")
	}
	if st := cache.Stats(); st.Hits != 0 {
		t.Errorf("fresh cache hit %d times", st.Hits)
	}
	// A second Cache instance over the same dir — the reused-directory
	// case of the CLI lifecycle.
	reusedCache := flags.OpenCache(&warnings, "crtables")
	if reused := render(reusedCache); reused != baseline {
		t.Error("reused-cache emit differs from uncached emit")
	}
	if st := reusedCache.Stats(); st.Hits == 0 {
		t.Error("reused cache dir never hit")
	}
	if warnings.Len() != 0 {
		t.Errorf("healthy lifecycle warned: %s", warnings.String())
	}
}
