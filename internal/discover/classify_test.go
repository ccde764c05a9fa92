package discover

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

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

// harvest runs the harvest browse of br and returns its observation.
func harvest(t *testing.T, br *targets.Browser) *browseObservation {
	t.Helper()
	obs, err := Config{Seed: 42}.begin("api", br.Name).observeBrowse(br, nil)
	if err != nil {
		t.Fatalf("%s harvest: %v", br.Name, err)
	}
	return obs
}

// compareClassify classifies api both ways, forking the harvest's
// snapshots and by the full replay, and fails t unless verdicts, clocks and
// Stats agree. It reports whether the classify forked and whether it ran a
// browse at all.
func compareClassify(t *testing.T, name string, cfg Config, br *targets.Browser, api string, obs argObservation, forks *classifyForks) (forked, browsed bool) {
	t.Helper()
	ref := cfg
	UseFullReplays(&ref)
	got, gotCost, forked, err := cfg.begin("api", br.Name).classify(br, api, obs, forks)
	if err != nil {
		t.Fatalf("%s %s forked: %v", name, api, err)
	}
	want, wantCost, _, err := ref.begin("api", br.Name).classify(br, api, obs, forks)
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
		obs := harvest(t, br)
		forks, browses := 0, 0
		for _, js := range br.JSAPIs {
			forked, browsed := compareClassify(t, c.name, cfg, br, js.API, obs.args[js.API], &obs.forks)
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

// TestForkedClassifyFallbacks resolves the first touch of every 8-byte slot
// of a small Firefox's executable, script engine and xul data, and an
// unmapped one, from one recorded harvest of several Run slices, and sorts
// the slots into kinds: a slot unmapped at build, never touched, first
// touched in the browse by a read or by a write, or touched in Start. A slot counts as written when
// its bytes differ between the snapshot of its first touch's slice and the
// next snapshot, or the browse's end after the last slice. It classifies
// one slot of each kind both ways, and one per slice of the kinds first
// touched in the browse: every kind but the last must fork, and every
// classify must equal the replay.
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
	obs, as, err := cfg.begin("api", br.Name).harvestBrowse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := &obs.forks
	w.resolve(as, slots)
	if len(w.snaps) < 2 {
		t.Fatalf("the browse took %d snapshots, want several", len(w.snaps))
	}
	// states holds a fork of each snapshot and, last, one finished browse.
	var states []*targets.BrowserEnv
	for _, snap := range w.snaps {
		f, err := snap.Fork()
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, f)
	}
	end, err := w.snaps[len(w.snaps)-1].Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := end.ResumeBrowse(); err != nil {
		t.Fatal(err)
	}
	states = append(states, end)
	// bytesAt reads a slot's bytes in state i, nil where it is unmapped.
	bytesAt := func(i int, slot uint64) []byte {
		b, _ := states[i].Proc.AS.Read(slot, 8)
		return b
	}

	const (
		unmappedAtBuild = "unmapped at build"
		neverTouched    = "never touched"
		firstRead       = "first read in the browse"
		firstWritten    = "first written in the browse"
		touchedInStart  = "touched in Start"
	)
	kindOf := func(slot uint64) string {
		switch i := w.first[slot]; {
		case !env.Proc.AS.Mapped(slot):
			return unmappedAtBuild
		case i == untouched:
			return neverTouched
		case i < 0:
			return touchedInStart
		case !bytes.Equal(bytesAt(i, slot), bytesAt(i+1, slot)):
			return firstWritten
		default:
			return firstRead
		}
	}
	type pick struct {
		kind  string
		slice int
	}
	count := map[string]int{}
	picked := map[string][]uint64{}
	pickedIn := map[pick]bool{}
	browsed := map[int]bool{} // slices holding a first touch
	for _, a := range slots {
		kind := kindOf(a)
		count[kind]++
		perSlice := kind == firstRead || kind == firstWritten
		if perSlice {
			browsed[w.first[a]] = true
		}
		if at := (pick{kind, w.first[a]}); len(picked[kind]) == 0 || perSlice && !pickedIn[at] {
			picked[kind] = append(picked[kind], a)
			pickedIn[at] = true
		}
	}
	t.Logf("%d slots over %d snapshots: %v", len(slots), len(w.snaps), count)
	for _, kind := range []string{unmappedAtBuild, neverTouched, firstRead, firstWritten, touchedInStart} {
		if len(picked[kind]) == 0 {
			t.Errorf("no slot is %s", kind)
			continue
		}
		for _, slot := range picked[kind] {
			arg := argObservation{value: 0x1234, provOK: true, prov: slot}
			forked, _ := compareClassify(t, kind, cfg, br, "slot", arg, w)
			if want := kind != touchedInStart; forked != want {
				t.Errorf("%s (slot %#x): forked = %v, want %v", kind, slot, forked, want)
			}
		}
	}
	if len(browsed) < 2 {
		t.Errorf("first touches in the browse fall in %d of %d slices, want several", len(browsed), len(w.snaps))
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
	}
}

// TestHarvestSnapshotsAreHostOnly runs the small IE funnel forking and by
// full replays: reports, RunStats (wall times, shard splits and span timing
// aside), profiles and progress events must be identical, so recording
// first touches and taking snapshots in the harvest charges nothing, opens
// no span and sends no event.
func TestHarvestSnapshotsAreHostOnly(t *testing.T) {
	br, err := targets.IE(targets.SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	run := func(full bool) string {
		var events []string
		var mu sync.Mutex
		cfg := Config{Seed: 42, Workers: 2, Profile: prof.New(),
			Progress: func(ev metrics.StageEvent) {
				mu.Lock()
				defer mu.Unlock()
				events = append(events, fmt.Sprintf("%s/%v/%d/%d", ev.Stage, ev.Kind, ev.Done, ev.Total))
			}}
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
		return fmt.Sprintf("%s\n%s\n%v", normalizedReport(t, rep), folded.String(), events)
	}
	if got, want := run(false), run(true); got != want {
		t.Errorf("forking run differs from full replays:\n got %.600s\nwant %.600s", got, want)
	}
}

// TestHarvestSnapshotsMatchCleanBrowse takes the harvest's snapshots of IE
// and Firefox and those of a browse without taint or tracers: at every
// slice, clock, Stats, each thread's registers, PC, state and frames, the
// mappings and their bytes must be equal, since taint and tracers only
// observe.
func TestHarvestSnapshotsMatchCleanBrowse(t *testing.T) {
	for _, build := range []func(targets.BrowserParams) (*targets.Browser, error){targets.IE, targets.Firefox} {
		br, err := build(classifyScale())
		if err != nil {
			t.Fatal(err)
		}
		obs := harvest(t, br)
		env, err := br.NewEnv(42)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Start(); err != nil {
			t.Fatal(err)
		}
		var clean []*targets.BrowseSnapshot
		if err := env.BrowseSnapshots(func(_ int, s *targets.BrowseSnapshot) { clean = append(clean, s) }); err != nil {
			t.Fatal(err)
		}
		if len(obs.forks.snaps) != len(clean) || len(clean) == 0 {
			t.Fatalf("%s: the harvest took %d snapshots, a clean browse %d", br.Name, len(obs.forks.snaps), len(clean))
		}
		for i := range clean {
			if got, want := snapshotState(t, obs.forks.snaps[i]), snapshotState(t, clean[i]); got != want {
				t.Errorf("%s slice %d: harvest snapshot\n%s\nclean browse\n%s", br.Name, i, got, want)
			}
		}
	}
}

// snapshotState renders the virtual state of a fork of s: clock, Stats,
// each thread's registers, PC, state and frames, and a digest of the
// mappings and the bytes they hold.
func snapshotState(t *testing.T, s *targets.BrowseSnapshot) string {
	t.Helper()
	env, err := s.Fork()
	if err != nil {
		t.Fatal(err)
	}
	p := env.Proc
	var b strings.Builder
	fmt.Fprintf(&b, "clock %d stats %+v\n", p.Clock, p.Stats)
	for _, th := range p.Threads() {
		fmt.Fprintf(&b, "thread %d pc %#x state %v regs %x frames %+v\n", th.ID, th.PC, th.State, th.Regs, th.Frames())
	}
	h := sha256.New()
	var page [mem.PageSize]byte
	for _, r := range p.AS.Regions() {
		fmt.Fprintln(h, r)
		// The fork is ours to change: make every page readable.
		if err := p.AS.Protect(r.Addr, r.Length, mem.PermRead); err != nil {
			t.Fatal(err)
		}
		for a := r.Addr; a < r.Addr+r.Length; a += mem.PageSize {
			if err := p.AS.ReadInto(a, page[:]); err != nil {
				t.Fatal(err)
			}
			h.Write(page[:])
		}
	}
	fmt.Fprintf(&b, "memory %x", h.Sum(nil))
	return b.String()
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
// profiles must be identical. Jobs and retries fork the harvest's
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
