package metrics

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// buildTracedRun drives a collector through a small staged run the way the
// discover pool does, returning the finished stats.
func buildTracedRun(t *testing.T, workers int) *RunStats {
	t.Helper()
	c := NewCollector("seh", "iexplore", workers)
	st := c.StartStage("symex", 4)
	st.NameJobs(func(i int) string { return "symex/mod" + string(rune('a'+i)) })
	tasks := make([]int, workers)
	for w := 0; w < workers; w++ {
		sh := st.Shard(w)
		for i := w; i < 4; i += workers {
			js := sh.Job(i)
			st.Observe(uint64(100 * (i + 1)))
			st.JobDone()
			js.End()
			tasks[w]++
		}
		sh.End()
	}
	st.ShardTasks(tasks)
	st.End()
	stats, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestSpanTreeStructure(t *testing.T) {
	stats := buildTracedRun(t, 2)

	byKind := map[string][]Span{}
	byID := map[string]Span{}
	for _, s := range stats.Spans {
		byKind[s.Kind] = append(byKind[s.Kind], s)
		byID[s.ID] = s
	}
	if len(byKind[SpanRun]) != 1 || len(byKind[SpanPipeline]) != 1 || len(byKind[SpanStage]) != 1 {
		t.Fatalf("span kinds = run:%d pipeline:%d stage:%d, want 1 each",
			len(byKind[SpanRun]), len(byKind[SpanPipeline]), len(byKind[SpanStage]))
	}
	if len(byKind[SpanShard]) != 2 || len(byKind[SpanJob]) != 4 {
		t.Fatalf("span kinds = shard:%d job:%d, want 2/4", len(byKind[SpanShard]), len(byKind[SpanJob]))
	}

	// Every non-root span's parent must exist, and the chain must reach the
	// run span: job → shard → stage → pipeline → run.
	run := byKind[SpanRun][0]
	if run.Parent != "" {
		t.Errorf("run span has parent %q", run.Parent)
	}
	for _, s := range stats.Spans {
		if s.Kind == SpanRun {
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			t.Errorf("span %s (%s) has dangling parent %s", s.ID, s.Name, s.Parent)
		}
	}
	for _, j := range byKind[SpanJob] {
		sh := byID[j.Parent]
		if sh.Kind != SpanShard {
			t.Errorf("job %s parent kind = %s, want shard", j.Name, sh.Kind)
		}
		if j.Shard != sh.Shard {
			t.Errorf("job %s shard = %d, parent lane = %d", j.Name, j.Shard, sh.Shard)
		}
	}
	// The labeller names the jobs.
	if byKind[SpanJob][0].Name == "" || !strings.HasPrefix(byKind[SpanJob][0].Name, "symex/mod") {
		t.Errorf("job name = %q, want labelled", byKind[SpanJob][0].Name)
	}
	if stats.SpansDropped != 0 {
		t.Errorf("spans dropped = %d, want 0", stats.SpansDropped)
	}
}

// TestSpanIDsWorkerInvariant checks the determinism half of the span
// contract: run/pipeline/stage/job IDs depend only on the tree path, never
// on which lane ran the job or how many lanes existed.
func TestSpanIDsWorkerInvariant(t *testing.T) {
	ids := func(stats *RunStats) map[string]string {
		m := map[string]string{}
		for _, s := range stats.Spans {
			if s.Kind == SpanShard {
				continue // lanes legitimately differ with worker count
			}
			m[s.Kind+"/"+s.Name] = s.ID
		}
		return m
	}
	one := ids(buildTracedRun(t, 1))
	four := ids(buildTracedRun(t, 4))
	if len(one) != len(four) {
		t.Fatalf("span sets differ: %d vs %d", len(one), len(four))
	}
	for k, id := range one {
		if four[k] != id {
			t.Errorf("span %q id %s at workers=1 but %s at workers=4", k, id, four[k])
		}
	}
}

func TestJobSpanCap(t *testing.T) {
	c := NewCollector("api", "iexplore", 1)
	st := c.StartStage("fuzz", maxJobSpans+10)
	sh := st.Shard(0)
	for i := 0; i < maxJobSpans+10; i++ {
		js := sh.Job(i)
		st.JobDone()
		js.End()
	}
	sh.End()
	st.End()
	stats, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	jobs := 0
	for _, s := range stats.Spans {
		if s.Kind == SpanJob {
			jobs++
		}
	}
	if jobs != maxJobSpans {
		t.Errorf("job spans = %d, want cap %d", jobs, maxJobSpans)
	}
	if stats.SpansDropped != 10 {
		t.Errorf("spans dropped = %d, want 10", stats.SpansDropped)
	}
	// Control spans survive the cap.
	kinds := map[string]bool{}
	for _, s := range stats.Spans {
		kinds[s.Kind] = true
	}
	for _, k := range []string{SpanRun, SpanPipeline, SpanStage, SpanShard} {
		if !kinds[k] {
			t.Errorf("missing %s span after job-span cap", k)
		}
	}
}

// TestJobSpanCapDropsFirst checks that a job past the cap is dropped before
// its span is built: its labeller never runs, it allocates nothing, and
// every drop still counts.
func TestJobSpanCapDropsFirst(t *testing.T) {
	c := NewCollector("api", "iexplore", 1)
	st := c.StartStage("fuzz", maxJobSpans)
	labelled := 0
	st.NameJobs(func(i int) string {
		labelled++
		return fmt.Sprintf("fuzz/api-%d", i)
	})
	sh := st.Shard(0)
	for i := 0; i < maxJobSpans; i++ {
		sh.Job(i).End()
	}
	const past = 25
	var dropped int
	allocs := testing.AllocsPerRun(past-1, func() {
		js := sh.Job(maxJobSpans + dropped)
		if js != nil {
			t.Fatal("a job past the cap opened a span")
		}
		js.End()
		dropped++
	})
	sh.End()
	st.End()
	stats, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a job past the cap allocates %v times, want 0", allocs)
	}
	if labelled != maxJobSpans {
		t.Errorf("labeller ran %d times, want %d (only for kept jobs)", labelled, maxJobSpans)
	}
	if stats.SpansDropped != past {
		t.Errorf("spans dropped = %d, want %d", stats.SpansDropped, past)
	}
}

func TestNilSpanReceivers(t *testing.T) {
	var st *Stage
	st.NameJobs(func(int) string { return "x" })
	st.Observe(1)
	sh := st.Shard(0)
	js := sh.Job(0)
	js.End()
	sh.End() // none of this may panic
}

func TestChromeTraceExport(t *testing.T) {
	stats := buildTracedRun(t, 2)
	var buf strings.Builder
	if err := WriteChromeTrace(&buf, stats); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	var complete, meta int
	cats := map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			cats[ev.Cat]++
			if ev.Pid != 1 {
				t.Errorf("event %q pid = %d, want 1", ev.Name, ev.Pid)
			}
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if complete != len(stats.Spans) {
		t.Errorf("complete events = %d, want %d", complete, len(stats.Spans))
	}
	for _, k := range []string{SpanRun, SpanPipeline, SpanStage, SpanShard, SpanJob} {
		if cats[k] == 0 {
			t.Errorf("no %q events in trace", k)
		}
	}
	if meta < 2 { // process_name + at least one thread_name
		t.Errorf("metadata events = %d, want >= 2", meta)
	}
	// A nil run contributes nothing and must not panic.
	var empty strings.Builder
	if err := WriteChromeTrace(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(empty.String())) {
		t.Errorf("empty trace not valid JSON: %s", empty.String())
	}
}
