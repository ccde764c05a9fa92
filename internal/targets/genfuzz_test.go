package targets_test

// Fuzz targets for the generative universe (external test package so the
// real pipelines, which import targets, can be driven end to end). The
// property under fuzz: ANY (seed, n) — not just the pinned production
// seeds — yields images that survive the canonical internal/bin round
// trip and run through the discovery pipelines without panicking. Wired
// into `make fuzz-short`.

import (
	"bytes"
	"context"
	"testing"

	"crashresist"
	"crashresist/internal/bin"
	"crashresist/internal/targets"
)

// fuzzRoundTrip asserts img survives Marshal → Unmarshal → Marshal as a
// fixpoint, the same contract FuzzImageParse pins for hostile bytes.
func fuzzRoundTrip(t *testing.T, img *bin.Image) {
	m1, err := bin.Marshal(img)
	if err != nil {
		t.Fatalf("generated image %s does not marshal: %v", img.Name, err)
	}
	img2, err := bin.Unmarshal(m1)
	if err != nil {
		t.Fatalf("generated image %s does not re-parse: %v", img.Name, err)
	}
	m2, err := bin.Marshal(img2)
	if err != nil {
		t.Fatalf("re-parsed image %s does not marshal: %v", img.Name, err)
	}
	if !bytes.Equal(m1, m2) {
		t.Fatalf("generated image %s is not a canonical fixpoint", img.Name)
	}
}

// FuzzGenDLL builds a small generated DLL corpus from an arbitrary seed,
// checks every image parses, and runs the SEH pipeline over a browser
// embedding it.
func FuzzGenDLL(f *testing.F) {
	f.Add(int64(targets.DefaultGenSeed), uint8(4))
	f.Add(int64(0), uint8(1))
	f.Add(int64(-1), uint8(7))

	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		count := int(n)%8 + 1 // keep each iteration cheap
		images, specs, sites, err := targets.GenDLLCorpus(seed, count)
		if err != nil {
			t.Fatalf("GenDLLCorpus(%d, %d): %v", seed, count, err)
		}
		if len(images) != count || len(specs) != count {
			t.Fatalf("got %d images / %d specs, want %d", len(images), len(specs), count)
		}
		for i, img := range images {
			if img.Name != targets.GenDLLName(i) {
				t.Fatalf("image %d named %q, want %q", i, img.Name, targets.GenDLLName(i))
			}
			fuzzRoundTrip(t, img)
		}
		for _, s := range specs {
			if s.AVHandlers > s.Handlers || s.OnPath > s.AVHandlers ||
				s.AVFilters > s.Filters || s.CatchAll > s.Handlers {
				t.Fatalf("inconsistent spec %+v", s)
			}
		}

		params := crashresist.SmallBrowserParams()
		params.Corpus.GenSeed = seed
		params.Corpus.GenDLLs = count
		br, err := crashresist.IE(params)
		if err != nil {
			t.Fatalf("IE with generated corpus: %v", err)
		}
		if len(br.Plan.Sites) < len(sites) {
			t.Fatalf("browser plan lost generated sites: %d < %d", len(br.Plan.Sites), len(sites))
		}
		req := crashresist.Request{Pipeline: crashresist.PipelineSEH, Browser: br, Seed: 42, Workers: 2}
		if _, err := crashresist.Run(context.Background(), req); err != nil {
			t.Fatalf("SEH pipeline on generated corpus: %v", err)
		}
	})
}

// FuzzGenServer builds a generated server from an arbitrary seed, checks
// the image parses and its declared profile is well formed, and runs the
// syscall pipeline over it.
func FuzzGenServer(f *testing.F) {
	f.Add(int64(targets.DefaultGenSeed), uint8(0))
	f.Add(int64(1), uint8(3))
	f.Add(int64(-99), uint8(255))

	f.Fuzz(func(t *testing.T, seed int64, idx uint8) {
		i := int(idx) % 64
		srv, err := targets.GenServer(seed, i)
		if err != nil {
			t.Fatalf("GenServer(%d, %d): %v", seed, i, err)
		}
		if srv.Name != targets.GenServerName(i) {
			t.Fatalf("server named %q, want %q", srv.Name, targets.GenServerName(i))
		}
		fuzzRoundTrip(t, srv.Image)
		if srv.Suite == nil || srv.ServiceCheck == nil {
			t.Fatal("generated server is missing its workload suite or service check")
		}

		profiles := targets.GenServerProfiles(seed, i+1)
		p := profiles[i]
		seen := map[string]string{}
		for _, group := range []struct {
			label string
			list  []string
		}{{"usable", p.Usable}, {"invalid", p.Invalid}, {"observed", p.Observed}} {
			for _, s := range group.list {
				if prev, dup := seen[s]; dup {
					t.Fatalf("profile lists %s as both %s and %s", s, prev, group.label)
				}
				seen[s] = group.label
			}
		}

		res, err := crashresist.Run(context.Background(), crashresist.Request{Server: srv, Seed: 42, Workers: 2})
		if err != nil {
			t.Fatalf("syscall pipeline on generated server: %v", err)
		}
		rep := res.Syscall
		if rep.Server != srv.Name {
			t.Fatalf("report names %q, want %q", rep.Server, srv.Name)
		}
	})
}
