package discover

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"crashresist/internal/cas"
	"crashresist/internal/faultinject"
	"crashresist/internal/mem"
	"crashresist/internal/metrics"
	"crashresist/internal/prof"
	"crashresist/internal/targets"
)

// raceDetector reports whether the test binary runs under -race, which
// multiplies a paper-scale browse about tenfold.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// classifyScale is the browser sizing of the classify differential tests:
// paper scale, or small scale under -race and -short.
func classifyScale() targets.BrowserParams {
	if raceDetector() || testing.Short() {
		return targets.SmallBrowserParams()
	}
	return targets.PaperBrowserParams()
}

// harvestSlots runs the harvest browse of br and returns its observation
// and the stored-pointer slots the classify stage watches.
func harvestSlots(t *testing.T, r *pipelineRun, br *targets.Browser) (*browseObservation, []uint64) {
	t.Helper()
	obs, err := r.observeBrowse(br, nil)
	if err != nil {
		t.Fatalf("%s harvest: %v", br.Name, err)
	}
	var slots []uint64
	for _, js := range br.JSAPIs {
		if arg, ok := obs.args[js.API]; ok && !arg.onStack && arg.provOK {
			slots = append(slots, arg.prov)
		}
	}
	return obs, slots
}

// compareClassify classifies api both ways, forking the watch and by the
// full replay, and fails t unless verdicts, clocks and Stats agree. It
// reports whether the classify forked and whether it ran a browse at all.
func compareClassify(t *testing.T, name string, cfg Config, br *targets.Browser, api string, obs argObservation, watch func() *classifyWatch) (forked, browsed bool) {
	t.Helper()
	ref := cfg
	UseFullReplays(&ref)
	got, gotCost, forked, err := cfg.begin("api", br.Name).classify(br, api, obs, watch)
	if err != nil {
		t.Fatalf("%s %s forked: %v", name, api, err)
	}
	want, wantCost, _, err := ref.begin("api", br.Name).classify(br, api, obs, watch)
	if err != nil {
		t.Fatalf("%s %s replay: %v", name, api, err)
	}
	if got != want || gotCost != wantCost {
		t.Errorf("%s %s: forked %+v cost %+v\nreplay %+v cost %+v", name, api, got, gotCost, want, wantCost)
	}
	return forked, wantCost.HasEnv
}

// TestForkedClassifyMatchesReplay classifies every JS-context API of IE,
// Firefox and a generated browser both ways: the verdict (reason,
// provenance, detail), the clock and the Stats must agree. Every IE
// classify that browses must fork, which at paper scale is four of them.
func TestForkedClassifyMatchesReplay(t *testing.T) {
	gen := targets.SmallBrowserParams()
	gen.Corpus.GenSeed = targets.DefaultGenSeed
	gen.Corpus.GenDLLs = 40
	cases := []struct {
		name  string
		build func(targets.BrowserParams) (*targets.Browser, error)
		scale targets.BrowserParams
	}{
		{"ie", targets.IE, classifyScale()},
		{"firefox", targets.Firefox, classifyScale()},
		{"generated", targets.IE, gen},
	}
	for _, c := range cases {
		br, err := c.build(c.scale)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Seed: 42}
		obs, slots := harvestSlots(t, cfg.begin("api", br.Name), br)
		r := cfg.begin("api", br.Name)
		watch := sync.OnceValue(func() *classifyWatch { return r.watchBrowse(br, slots) })
		forks, browses := 0, 0
		for _, js := range br.JSAPIs {
			forked, browsed := compareClassify(t, c.name, cfg, br, js.API, obs.args[js.API], watch)
			if forked {
				forks++
			}
			if browsed {
				browses++
			}
		}
		t.Logf("%s: %d of %d JS-context classifies browse, %d forked", c.name, browses, len(br.JSAPIs), forks)
		if c.name == "ie" && forks != browses {
			t.Errorf("ie: %d of %d browsing classifies forked, want all", forks, browses)
		}
		if c.name == "ie" && c.scale.TriggerTotal == targets.PaperBrowserParams().TriggerTotal && browses != 4 {
			t.Errorf("paper ie: %d classifies browse, want 4", browses)
		}
	}
}

// TestForkedClassifyFallbacks watches every 8-byte slot of a small
// Firefox's executable, script engine and xul data, and an unmapped one,
// over a browse of several Run slices. It classifies one slot of each kind
// the watch sorts them into, both ways: a slot unmapped at build, written
// before its first read, first read during Start, or never read must fall
// back to the full replay. Slots first read in the browse must fork; one
// is classified for each slice holding a first read. Every classify must
// equal the replay.
func TestForkedClassifyFallbacks(t *testing.T) {
	params := targets.SmallBrowserParams()
	params.TriggerTotal = 400_000
	br, err := targets.Firefox(params)
	if err != nil {
		t.Fatal(err)
	}
	env, err := br.NewEnv(42)
	if err != nil {
		t.Fatal(err)
	}
	unmapped := uint64(0x10000)
	if env.Proc.AS.Mapped(unmapped) {
		t.Fatal("the unmapped slot is mapped")
	}
	slots := []uint64{unmapped}
	for _, name := range []string{"firefox.exe", "jscript9.dll", "xul.dll"} {
		mod, ok := env.Proc.Module(name)
		if !ok {
			t.Fatalf("no module %s", name)
		}
		for off := uint64(mod.Image.DataStart()); off+8 <= mod.Image.Span(); off += 8 {
			slots = append(slots, mod.Base+off)
		}
	}
	cfg := Config{Seed: 42}
	w := cfg.begin("api", br.Name).watchBrowse(br, slots)
	watch := func() *classifyWatch { return w }

	kinds := map[string]func(s *slotWatch) bool{
		"unmapped at build":        func(s *slotWatch) bool { return !s.mapped },
		"written before read":      func(s *slotWatch) bool { return s.mapped && s.touched },
		"first read during Start":  func(s *slotWatch) bool { return s.mapped && !s.touched && s.read && s.slice < 0 },
		"never read":               func(s *slotWatch) bool { return s.mapped && !s.touched && !s.read },
		"first read in the browse": func(s *slotWatch) bool { return s.mapped && !s.touched && s.read && s.slice >= 0 },
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, kind := range names {
		var picked []uint64
		slices := map[int]bool{}
		for _, a := range slots {
			s := w.slots[a]
			if kinds[kind](s) && (len(picked) == 0 || kind == "first read in the browse" && !slices[s.slice]) {
				picked = append(picked, a)
				slices[s.slice] = true
			}
		}
		if len(picked) == 0 {
			t.Errorf("no slot is %s", kind)
			continue
		}
		for _, slot := range picked {
			obs := argObservation{value: 0x1234, provOK: true, prov: slot}
			forked, _ := compareClassify(t, kind, cfg, br, "slot", obs, watch)
			if want := kind == "first read in the browse"; forked != want {
				t.Errorf("%s (slot %#x): forked = %v, want %v", kind, slot, forked, want)
			}
		}
		if kind == "first read in the browse" && len(picked) < 2 {
			t.Errorf("first reads fall in %d of %d slices, want several", len(picked), len(w.snaps))
		}
	}
}

// TestCorruptingFlowTriggers pins which writes re-corrupt a replay's slot:
// a program store (StoreMem) and a socket input copy (MarkMem) over any of
// its bytes do; a constant store (ClearMem), a store beside it and any
// write after disarm do not.
func TestCorruptingFlowTriggers(t *testing.T) {
	const slot, bad = 0x40008, uint64(InvalidProbeAddr)
	steps := []struct {
		name      string
		event     func(c *corruptingFlow)
		corrupted bool
	}{
		{"StoreMem over the slot", func(c *corruptingFlow) { c.StoreMem(0, 1, slot, 8) }, true},
		{"StoreMem over its last byte", func(c *corruptingFlow) { c.StoreMem(0, 1, slot+7, 1) }, true},
		{"MarkMem over the slot", func(c *corruptingFlow) { c.MarkMem(1, slot-4, 8) }, true},
		{"StoreMem beside the slot", func(c *corruptingFlow) { c.StoreMem(0, 1, slot+8, 8) }, false},
		{"ClearMem over the slot", func(c *corruptingFlow) { c.ClearMem(slot, 8) }, false},
		{"StoreMem after disarm", func(c *corruptingFlow) { c.disarm(); c.StoreMem(0, 1, slot, 8) }, false},
	}
	for _, st := range steps {
		env, err := newSlotSpace(slot)
		if err != nil {
			t.Fatal(err)
		}
		c := &corruptingFlow{as: env, target: slot, value: bad}
		// The program writes the slot, then the event under test fires.
		if err := env.WriteUint(slot, 8, 0x5a5a); err != nil {
			t.Fatal(err)
		}
		st.event(c)
		got, _ := env.ReadUint(slot, 8)
		if corrupted := got == bad; corrupted != st.corrupted {
			t.Errorf("%s: slot holds %#x, corrupted = %v, want %v", st.name, got, corrupted, st.corrupted)
		}
		if c.RegTaint(0, 1) != 0 || c.MemTaint(slot, 8) != 0 {
			t.Errorf("%s: the corruptor reports taint", st.name)
		}
	}
}

// TestWatchBrowseIsHostOnly runs the small IE funnel forking and by full
// replays: reports, RunStats (wall times, shard splits and span timing
// aside), profiles and progress events must be identical, so the watch
// browse charges nothing, opens no span and sends no event. It runs once in
// a cold run, lazily, and not at all in a warm one.
func TestWatchBrowseIsHostOnly(t *testing.T) {
	br, err := targets.IE(targets.SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func(full bool, cache *cas.Cache) (string, int64) {
		var events []string
		var mu sync.Mutex
		var watches atomic.Int64
		cfg := Config{Seed: 42, Workers: 2, Profile: prof.New(), Cache: cache,
			Progress: func(ev metrics.StageEvent) {
				mu.Lock()
				defer mu.Unlock()
				events = append(events, fmt.Sprintf("%s/%v/%d/%d", ev.Stage, ev.Kind, ev.Done, ev.Total))
			}}
		CountWatchBrowses(&cfg, &watches)
		if full {
			UseFullReplays(&cfg)
		}
		rep, err := AnalyzeAPIs(context.Background(), cfg, br)
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(events)
		var folded bytes.Buffer
		if err := cfg.Profile.Snapshot().WriteFolded(&folded); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s\n%s\n%v", normalizedReport(t, rep), folded.String(), events), watches.Load()
	}
	want, n := run(true, nil)
	if n != 0 {
		t.Errorf("full replays ran %d watch browses", n)
	}
	got, n := run(false, nil)
	if n != 1 {
		t.Errorf("a forking run ran %d watch browses, want 1", n)
	}
	if got != want {
		t.Errorf("forking run differs from full replays:\n got %.600s\nwant %.600s", got, want)
	}
	cache, err := cas.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, n := run(false, cache); n != 1 {
		t.Errorf("a cold cached run ran %d watch browses, want 1", n)
	}
	if _, n := run(false, cache); n != 0 {
		t.Errorf("a warm run ran %d watch browses, want 0", n)
	}
}

// normalizedReport renders a funnel report with the scheduling-dependent
// parts of its RunStats cleared: wall times, shard splits and span timing
// and placement, keeping each span's kind and name.
func normalizedReport(t *testing.T, rep *APIFunnelReport) string {
	t.Helper()
	cp := *rep
	st := *rep.Stats
	st.WallNS, st.Workers = 0, 0
	st.Stages = append([]metrics.StageStats(nil), st.Stages...)
	for i := range st.Stages {
		st.Stages[i].WallNS, st.Stages[i].ShardTasks = 0, nil
	}
	var spans []string
	for _, s := range st.Spans {
		spans = append(spans, s.Kind+" "+s.Name)
	}
	sort.Strings(spans)
	st.Spans = nil
	cp.Stats = &st
	raw, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s\n%v", raw, spans)
}

// chaosPaper selects the paper-scale chaos sweep (`make chaos`).
var chaosPaper = os.Getenv("CHAOS_SCALE") == "paper"

// TestChaosClassifyFork runs the IE funnel under default fault plans at
// four workers, forking and by full replays: reports, RunStats and
// profiles must be identical. Jobs and retries fork the watch browse's
// snapshots concurrently, so under -race this also checks that forking a
// snapshot writes nothing to it. `make chaos` runs it at paper scale.
func TestChaosClassifyFork(t *testing.T) {
	params, seeds := targets.SmallBrowserParams(), []int64{1, 3}
	if chaosPaper {
		params, seeds = targets.PaperBrowserParams(), []int64{1, 2, 3}
	}
	br, err := targets.IE(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		run := func(full bool) string {
			cfg := Config{Seed: 42, Workers: 4, FaultPlan: faultinject.Default(seed), Retries: 2, Profile: prof.New()}
			if full {
				UseFullReplays(&cfg)
			}
			rep, err := AnalyzeAPIs(context.Background(), cfg, br)
			if err != nil {
				t.Fatalf("chaos seed %d: %v", seed, err)
			}
			var folded bytes.Buffer
			if err := cfg.Profile.Snapshot().WriteFolded(&folded); err != nil {
				t.Fatal(err)
			}
			return normalizedReport(t, rep) + "\n" + folded.String()
		}
		if got, want := run(false), run(true); got != want {
			t.Errorf("chaos seed %d: forking run differs from full replays:\n got %.600s\nwant %.600s", seed, got, want)
		}
	}
}

// newSlotSpace maps one read-write page holding slot.
func newSlotSpace(slot uint64) (*mem.AddressSpace, error) {
	as := mem.NewAddressSpace()
	return as, as.Map(slot&^(mem.PageSize-1), mem.PageSize, mem.PermRW)
}
