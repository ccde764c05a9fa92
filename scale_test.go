package crashresist

// Property harness for the generated target universe (-scale, DESIGN.md
// §12). Generated corpora have no golden files; correctness is instead a
// set of properties checked against the generators' own declarations:
//
//   - worker invariance: normalized reports are byte-identical at 1, 4
//     and 8 workers (and across repeated runs);
//   - conservation: every generated target appears exactly once in the
//     report, in exactly the disposition its generator declared — every
//     DLL's Tables II/III row equals its GenDLLSpec, every on-path site
//     yields exactly one candidate, every server/syscall cell matches its
//     GenServerProfile;
//   - provenance completeness: one evidence chain per candidate/finding;
//   - cache equivalence: off, cold and warm runs produce byte-identical
//     reports, with hit counters > 0 on the warm run;
//   - chaos determinism: a fixed chaos seed degrades identically at
//     every worker count.
//
// The default `go test` run uses a trimmed generated population so tier-1
// stays fast. `make scale` sets CRASHRESIST_SCALE=large for the full
// ≥10×-paper corpus (1,870 generated DLLs on top of the 187 hand-built
// ones, a 60-server generated fleet); CRASHRESIST_SCALE_N overrides the
// generated DLL count directly.

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"

	"crashresist/internal/targets"
)

// scaleFull selects the full ≥10× generated corpus (`make scale`).
var scaleFull = os.Getenv("CRASHRESIST_SCALE") == "large"

// scaleDLLCount returns the generated-DLL population size for this run.
func scaleDLLCount(t testing.TB) int {
	if s := os.Getenv("CRASHRESIST_SCALE_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad CRASHRESIST_SCALE_N %q", s)
		}
		return n
	}
	if scaleFull {
		return targets.GenDLLsLarge
	}
	return 96
}

// scaleServerCount sizes the generated server fleet relative to the DLL
// population, between the small and large fleet sizes.
func scaleServerCount(nDLLs int) int {
	n := nDLLs / 24
	if n < targets.GenServersSmall {
		n = targets.GenServersSmall
	}
	if n > targets.GenServersLarge {
		n = targets.GenServersLarge
	}
	return n
}

// scaleBrowserParams extends the base corpus with n generated DLLs. At
// full scale with no override this is exactly LargeBrowserParams().
func scaleBrowserParams(n int) BrowserParams {
	p := SmallBrowserParams()
	if scaleFull {
		p = PaperBrowserParams()
	}
	p.Corpus.GenSeed = DefaultGenSeed
	p.Corpus.GenDLLs = n
	return p
}

func scaleCandidateKey(module string, scope int) string {
	return fmt.Sprintf("%s/scope-%d", module, scope)
}

// TestScaleSEHProperties runs the SEH pipeline over the generated-scale
// corpus: worker invariance plus conservation against every GenDLLSpec.
func TestScaleSEHProperties(t *testing.T) {
	n := scaleDLLCount(t)
	params := scaleBrowserParams(n)
	br, err := IE(params)
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Plan.Gen) != n {
		t.Fatalf("plan declares %d generated DLLs, want %d", len(br.Plan.Gen), n)
	}

	var rep *SEHReport
	sweep(t, "seh-gen", func(workers int) (any, error) {
		res, err := Run(context.Background(), Request{Pipeline: PipelineSEH, Browser: br, Seed: 42, Workers: workers})
		if err != nil {
			return nil, err
		}
		if rep == nil {
			rep = res.SEH
		}
		return res.SEH, nil
	})

	// Conservation: every module appears exactly once; every generated
	// module's measured row equals its declared spec.
	rows := make(map[string]ModuleSEH, len(rep.Modules))
	for _, m := range rep.Modules {
		if _, dup := rows[m.Module]; dup {
			t.Errorf("module %s appears twice in the report", m.Module)
		}
		rows[m.Module] = m
	}
	unknown := make(map[string]bool, len(rep.UnknownFilterModules))
	for _, m := range rep.UnknownFilterModules {
		unknown[m] = true
	}
	for _, g := range br.Plan.Gen {
		row, ok := rows[g.Name]
		if !ok {
			t.Errorf("generated module %s missing from the report", g.Name)
			continue
		}
		want := ModuleSEH{
			Module:   g.Name,
			Handlers: g.Handlers, AVHandlers: g.AVHandlers, OnPath: g.OnPath,
			Filters: g.Filters, AVFilters: g.AVFilters,
			UnknownFilters: g.UnknownFilters, CatchAll: g.CatchAll,
		}
		if row != want {
			t.Errorf("module %s measured %+v, generator declared %+v", g.Name, row, want)
		}
		if g.UnknownFilters > 0 && !unknown[g.Name] {
			t.Errorf("module %s has unknown filters but is not flagged for manual vetting", g.Name)
		}
	}

	// Totals = hand-built + generated declarations.
	bh, bf, baf, bah, bp := br.Plan.Totals()
	gh, gf, gaf, gah, gp := br.Plan.GenTotals()
	totals := [][3]int{
		{rep.TotalHandlers, bh + gh, 0},
		{rep.TotalFilters, bf + gf, 1},
		{rep.TotalAVFilters, baf + gaf, 2},
		{rep.TotalAVHandlers, bah + gah, 3},
		{rep.TotalOnPath, bp + gp, 4},
	}
	names := []string{"handlers", "filters", "av_filters", "av_handlers", "on_path"}
	for _, tc := range totals {
		if tc[0] != tc[1] {
			t.Errorf("total %s = %d, want %d", names[tc[2]], tc[0], tc[1])
		}
	}
	if rep.TotalModules != len(br.Plan.Specs)+n {
		t.Errorf("total modules = %d, want %d", rep.TotalModules, len(br.Plan.Specs)+n)
	}

	// Candidate conservation: every planned browse site appears exactly
	// once, nothing else does, and every candidate was actually hit.
	cands := make(map[string]int, len(rep.Candidates))
	for _, c := range rep.Candidates {
		cands[scaleCandidateKey(c.Module, c.Scope)]++
		if c.Hits == 0 {
			t.Errorf("candidate %s/%d reported with zero hits", c.Module, c.Scope)
		}
	}
	if len(rep.Candidates) != len(br.Plan.Sites) {
		t.Errorf("%d candidates, want one per planned site (%d)", len(rep.Candidates), len(br.Plan.Sites))
	}
	for _, s := range br.Plan.Sites {
		if got := cands[scaleCandidateKey(s.Module, s.Scope)]; got != 1 {
			t.Errorf("site %s/%d appears %d times in candidates, want 1", s.Module, s.Scope, got)
		}
	}

	// Trigger conservation: the browse workload distributes TriggerTotal
	// over the sites with a floor of one call each.
	var wantTriggers uint64
	nSites := len(br.Plan.Sites)
	per, rem := params.TriggerTotal/nSites, params.TriggerTotal%nSites
	for i := 0; i < nSites; i++ {
		c := per
		if i < rem {
			c++
		}
		if c <= 0 {
			c = 1
		}
		wantTriggers += uint64(c)
	}
	if rep.TriggerEvents != wantTriggers {
		t.Errorf("trigger events = %d, want %d", rep.TriggerEvents, wantTriggers)
	}

	// Provenance completeness: one chain per candidate, each with the
	// extract → symex → crossref evidence.
	prov := make(map[string]int, len(rep.Provenance))
	for _, p := range rep.Provenance {
		prov[p.Primitive]++
		if len(p.Chain) != 3 {
			t.Errorf("provenance %s has %d steps, want 3", p.Primitive, len(p.Chain))
		}
	}
	for _, c := range rep.Candidates {
		if got := prov[scaleCandidateKey(c.Module, c.Scope)]; got != 1 {
			t.Errorf("candidate %s/%d has %d provenance chains, want 1", c.Module, c.Scope, got)
		}
	}
}

// TestScaleSyscallProperties runs the syscall pipeline over the generated
// server fleet: worker invariance, input-order conservation, declared
// dispositions, and per-finding provenance.
func TestScaleSyscallProperties(t *testing.T) {
	n := scaleServerCount(scaleDLLCount(t))
	servers, err := GenServers(DefaultGenSeed, n)
	if err != nil {
		t.Fatal(err)
	}
	profiles := GenServerProfiles(DefaultGenSeed, n)

	var reports []*SyscallReport
	var base []string
	for _, workers := range []int{1, 4, 8} {
		res, err := Run(context.Background(), Request{Servers: servers, Seed: 42, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		reps := res.Servers
		if len(reps) != n {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(reps), n)
		}
		norm := make([]string, n)
		for i, r := range reps {
			norm[i] = normalize(t, r)
		}
		if base == nil {
			base, reports = norm, reps
			continue
		}
		for i := range norm {
			if norm[i] != base[i] {
				t.Errorf("workers=%d: report %d differs from 1-worker run", workers, i)
			}
		}
	}

	for i, rep := range reports {
		p := profiles[i]
		if rep.Server != p.Name {
			t.Errorf("report %d is for %q, want %q (input order)", i, rep.Server, p.Name)
			continue
		}
		check := func(list []string, want SyscallStatus, label string) {
			for _, s := range list {
				if got := rep.Status[s]; got != want {
					t.Errorf("%s: %s classified %v, generator declared %s", p.Name, s, got, label)
				}
			}
		}
		check(p.Usable, StatusUsable, "usable")
		check(p.Invalid, StatusInvalidCandidate, "invalid")
		check(p.Observed, StatusObserved, "observed-only")

		if len(rep.Provenance) != len(rep.Findings) {
			t.Errorf("%s: %d provenance chains for %d findings", p.Name, len(rep.Provenance), len(rep.Findings))
		}
		for _, pr := range rep.Provenance {
			if len(pr.Chain) != 2 {
				t.Errorf("%s: provenance %s has %d steps, want taint+validate", p.Name, pr.Primitive, len(pr.Chain))
			}
		}
	}
}

// TestScaleAPIFunnelProperties runs the API pipeline in the
// generated-scale browser: worker invariance plus funnel monotonicity.
func TestScaleAPIFunnelProperties(t *testing.T) {
	params := scaleBrowserParams(scaleDLLCount(t))
	br, err := IE(params)
	if err != nil {
		t.Fatal(err)
	}
	var rep *APIFunnelReport
	sweep(t, "api-gen", func(workers int) (any, error) {
		res, err := Run(context.Background(), Request{Pipeline: PipelineAPI, Browser: br, Seed: 42, Workers: workers})
		if err != nil {
			return nil, err
		}
		if rep == nil {
			rep = res.Funnel
		}
		return res.Funnel, nil
	})
	if rep.Total != params.API.Total {
		t.Errorf("funnel total = %d, want corpus size %d", rep.Total, params.API.Total)
	}
	chain := []int{rep.Total, rep.WithPointer, rep.CrashResistant, rep.OnPath, rep.JSContext, rep.Controllable}
	for i := 1; i < len(chain); i++ {
		if chain[i] > chain[i-1] {
			t.Fatalf("funnel not monotone: %v", chain)
		}
	}
	if len(rep.OnPathAPIs) != rep.OnPath {
		t.Errorf("%d on-path APIs listed, count says %d", len(rep.OnPathAPIs), rep.OnPath)
	}
	if len(rep.JSContextAPIs) != rep.JSContext {
		t.Errorf("%d js-context APIs listed, count says %d", len(rep.JSContextAPIs), rep.JSContext)
	}
}

// TestScaleCacheEquivalence proves cache-off, cold and warm runs are
// byte-identical at generated scale, with misses recorded on the cold run
// and hits on the warm one (the generated corpus keeps a pure-module
// majority, so the SEH pipeline always has persistable entries).
func TestScaleCacheEquivalence(t *testing.T) {
	n := scaleDLLCount(t)
	br, err := IE(scaleBrowserParams(n))
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenAnalysisCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	res, err := Run(context.Background(), Request{Pipeline: PipelineSEH, Browser: br, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	off := res.SEH
	res, err = Run(context.Background(), Request{Pipeline: PipelineSEH, Browser: br, Seed: 42, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	cold := res.SEH
	res, err = Run(context.Background(), Request{Pipeline: PipelineSEH, Browser: br, Seed: 42, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	warm := res.SEH
	want := normalize(t, off)
	if got := normalize(t, cold); got != want {
		t.Error("cold cached run differs from cache-off run")
	}
	if got := normalize(t, warm); got != want {
		t.Error("warm cached run differs from cache-off run")
	}
	if misses := cold.Stats.Counter(CtrCacheMisses); misses == 0 {
		t.Error("cold run recorded no cache misses")
	}
	if hits := warm.Stats.Counter(CtrCacheHits); hits == 0 {
		t.Error("warm run recorded no cache hits")
	}

	// Same equivalence for a generated server through the syscall
	// pipeline's validation cache.
	srv, err := GenServer(DefaultGenSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err = Run(context.Background(), Request{Server: srv, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	soff := res.Syscall
	res, err = Run(context.Background(), Request{Server: srv, Seed: 42, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	scold := res.Syscall
	res, err = Run(context.Background(), Request{Server: srv, Seed: 42, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	swarm := res.Syscall
	wantS := normalize(t, soff)
	if got := normalize(t, scold); got != wantS {
		t.Error("cold cached server run differs from cache-off run")
	}
	if got := normalize(t, swarm); got != wantS {
		t.Error("warm cached server run differs from cache-off run")
	}
	if hits := swarm.Stats.Counter(CtrCacheHits); hits == 0 {
		t.Error("warm server run recorded no cache hits")
	}
}

// TestScaleChaosDeterminism proves a fixed chaos seed produces the same
// degraded report at every worker count, at generated scale.
func TestScaleChaosDeterminism(t *testing.T) {
	br, err := IE(scaleBrowserParams(scaleDLLCount(t)))
	if err != nil {
		t.Fatal(err)
	}
	sweep(t, "chaos-gen", func(workers int) (any, error) {
		return reportOf(Run(context.Background(), Request{Pipeline: PipelineSEH, Browser: br, Seed: 42,
			Workers: workers, FaultPlan: DefaultFaultPlan(7), Retries: 2}))
	})
}
