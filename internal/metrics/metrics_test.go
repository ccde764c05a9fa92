package metrics

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterNamesDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for c := Counter(0); c < numCounters; c++ {
		name := c.String()
		if name == "" || strings.HasPrefix(name, "counter_") {
			t.Errorf("counter %d has no stable name", c)
		}
		if seen[name] {
			t.Errorf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
}

func TestCollectorCountsAndStages(t *testing.T) {
	c := NewCollector("seh", "iexplore", 4)
	c.Add(CtrInstructions, 100)
	c.Add(CtrInstructions, 23)
	c.Add(CtrFaults, 7)

	st := c.StartStage("symex", 10)
	for i := 0; i < 10; i++ {
		st.JobDone()
	}
	st.ShardTasks([]int{4, 3, 2, 1})
	st.End()

	stats, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pipeline != "seh" || stats.Target != "iexplore" || stats.Workers != 4 {
		t.Errorf("header = %s/%s/%d", stats.Pipeline, stats.Target, stats.Workers)
	}
	if got := stats.Counter(CtrInstructions); got != 123 {
		t.Errorf("instructions = %d, want 123", got)
	}
	if got := stats.Counter(CtrPoolTasks); got != 10 {
		t.Errorf("pool tasks = %d, want 10", got)
	}
	if len(stats.Stages) != 1 || stats.Stages[0].Name != "symex" || stats.Stages[0].Jobs != 10 {
		t.Errorf("stages = %+v", stats.Stages)
	}
	if !reflect.DeepEqual(stats.Stages[0].ShardTasks, []int{4, 3, 2, 1}) {
		t.Errorf("shard tasks = %v", stats.Stages[0].ShardTasks)
	}
	if !strings.Contains(stats.Format(), "symex") {
		t.Errorf("Format missing stage:\n%s", stats.Format())
	}
}

func TestNilCollectorAndStageAreNoOps(t *testing.T) {
	var c *Collector
	c.Add(CtrFaults, 1)
	c.AddSink(NewMemorySink())
	st := c.StartStage("x", 1)
	st.JobDone()
	st.ShardTasks([]int{1})
	st.End()
	if got := c.Snapshot(); got != nil {
		t.Errorf("nil collector snapshot = %+v", got)
	}
	if stats, err := c.Finish(); stats != nil || err != nil {
		t.Errorf("nil collector finish = %+v, %v", stats, err)
	}
}

func TestProgressEventSequence(t *testing.T) {
	c := NewCollector("syscall", "nginx", 1)
	sink := NewMemorySink()
	c.AddSink(sink)

	st := c.StartStage("validate", 2)
	st.JobDone()
	st.JobDone()
	st.End()
	got := sink.Events()

	want := []StageEvent{
		{Pipeline: "syscall", Target: "nginx", Stage: "validate", Kind: StageBegin, Total: 2},
		{Pipeline: "syscall", Target: "nginx", Stage: "validate", Kind: StageProgress, Done: 1, Total: 2},
		{Pipeline: "syscall", Target: "nginx", Stage: "validate", Kind: StageProgress, Done: 2, Total: 2},
		{Pipeline: "syscall", Target: "nginx", Stage: "validate", Kind: StageEnd, Done: 2, Total: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("event sequence:\n got %+v\nwant %+v", got, want)
	}
}

func TestMemorySink(t *testing.T) {
	mem := NewMemorySink()
	c := NewCollector("api", "iexplore", 2)
	c.AddSink(mem)
	c.Add(CtrProbes, 44)
	st := c.StartStage("fuzz", 11)
	st.JobDone()
	st.End()
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}

	if evs := mem.Events(); len(evs) != 3 {
		t.Errorf("memory sink events = %d, want 3 (begin/progress/end)", len(evs))
	}
	runs := mem.Runs()
	if len(runs) != 1 || runs[0].Counter(CtrProbes) != 44 {
		t.Errorf("memory sink runs = %+v", runs)
	}
}

func TestRunStatsJSONRoundTrip(t *testing.T) {
	in := &RunStats{
		Pipeline: "seh",
		Target:   "firefox",
		Workers:  8,
		Counters: map[string]uint64{"instructions": 9, "probes": 2},
		Stages: []StageStats{
			{Name: "browse", Jobs: 0, WallNS: 5},
			{Name: "symex", Jobs: 187, ShardTasks: []int{100, 87}, WallNS: 9},
		},
		WallNS: 77,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out RunStats
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&out, in) {
		t.Errorf("round trip:\n got %+v\nwant %+v", &out, in)
	}
	b2, err := json.Marshal(&out)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Errorf("re-marshal differs:\n%s\n%s", b, b2)
	}
}

func TestConcurrentCounterAdds(t *testing.T) {
	c := NewCollector("seh", "", 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(CtrInstructions, 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Snapshot().Counter(CtrInstructions); got != 8000 {
		t.Errorf("instructions = %d, want 8000", got)
	}
}
