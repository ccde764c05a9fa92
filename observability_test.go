package crashresist

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestErrorSentinels(t *testing.T) {
	if _, err := Server("nosuch"); !errors.Is(err, ErrUnknownServer) {
		t.Errorf("Server(nosuch) = %v, want ErrUnknownServer", err)
	}
	if _, err := Server("nginx"); err != nil {
		t.Errorf("Server(nginx) = %v", err)
	}
}

func TestContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	srv, err := Server("nginx")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := Run(ctx, Request{Server: srv, Seed: 11}); !errors.Is(err, context.Canceled) {
		t.Errorf("syscall Run = %v, want context.Canceled", err)
	}
	br, err := IE(SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, Request{Pipeline: PipelineAPI, Browser: br, Seed: 12}); !errors.Is(err, context.Canceled) {
		t.Errorf("api Run = %v, want context.Canceled", err)
	}
	if _, err := Run(ctx, Request{Pipeline: PipelineSEH, Browser: br, Seed: 13}); !errors.Is(err, context.Canceled) {
		t.Errorf("seh Run = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("pre-cancelled runs took %v, want a prompt return", elapsed)
	}
}

// TestContextCancelMidRun cancels a paper-scale SEH analysis from its own
// progress stream and expects the pipeline to stop instead of finishing
// the remaining stages.
func TestContextCancelMidRun(t *testing.T) {
	br, err := IE(PaperBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var ended atomic.Int32
	res, err := Run(ctx, Request{Pipeline: PipelineSEH, Browser: br, Seed: 13, Workers: 4,
		Progress: func(ev StageEvent) {
			if ev.Kind == StageEnd {
				ended.Add(1)
			}
			// Cancel as soon as the symbolic-execution stage starts; the
			// cross-ref stage must never run to completion.
			if ev.Stage == "symex" && ev.Kind == StageBegin {
				cancel()
			}
		}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("seh Run = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled run returned a report")
	}
	if n := ended.Load(); n >= 4 {
		t.Errorf("all %d stages ended despite cancellation", n)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	srv, err := Server("nginx")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Request{Server: srv, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sysRep := res.Syscall
	br, err := IE(SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err = Run(context.Background(), Request{Pipeline: PipelineAPI, Browser: br, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	apiRep := res.Funnel
	res, err = Run(context.Background(), Request{Pipeline: PipelineSEH, Browser: br, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	sehRep := res.SEH

	roundTrip := func(name string, in, out any) {
		t.Helper()
		data, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("%s marshal: %v", name, err)
		}
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s unmarshal: %v", name, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%s did not round-trip:\n in: %+v\nout: %+v", name, in, out)
		}
	}
	roundTrip("SyscallReport", sysRep, &SyscallReport{})
	roundTrip("APIFunnelReport", apiRep, &APIFunnelReport{})
	roundTrip("SEHReport", sehRep, &SEHReport{})
	roundTrip("RunStats", sysRep.Stats, &RunStats{})
}

func TestProgressEventsAndSinks(t *testing.T) {
	srv, err := Server("nginx")
	if err != nil {
		t.Fatal(err)
	}
	sink := NewMemorySink()
	var events []StageEvent
	res, err := Run(context.Background(), Request{Server: srv, Seed: 11,
		Sinks:    []MetricSink{sink},
		Progress: func(ev StageEvent) { events = append(events, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Syscall

	if rep.Stats == nil {
		t.Fatal("report carries no RunStats")
	}
	if rep.Stats.Pipeline != "syscall" || rep.Stats.Target != "nginx" {
		t.Errorf("stats identity = %s/%s", rep.Stats.Pipeline, rep.Stats.Target)
	}
	if rep.Stats.Counter(CtrInstructions) == 0 {
		t.Error("no instructions counted")
	}
	if rep.Stats.Counter(CtrEFAULTReturns) == 0 {
		t.Error("no EFAULT returns counted on a server with usable primitives")
	}

	seen := map[string]bool{}
	for _, ev := range events {
		if ev.Kind == StageEnd {
			seen[ev.Stage] = true
		}
	}
	for _, stage := range []string{"taint", "candidate", "validate"} {
		if !seen[stage] {
			t.Errorf("no end event for stage %q (events: %v)", stage, events)
		}
	}

	runs := sink.Runs()
	if len(runs) != 1 {
		t.Fatalf("sink flushed %d runs, want 1", len(runs))
	}
	if !reflect.DeepEqual(runs[0], rep.Stats) {
		t.Errorf("sink snapshot differs from report stats")
	}
	if len(sink.Events()) == 0 {
		t.Error("sink saw no stage events")
	}
}

// TestStatsDeterministicCounters proves the determinism contract: counter
// totals and stage job counts are identical at any worker count; only
// wall-clock and shard splits may differ.
func TestStatsDeterministicCounters(t *testing.T) {
	br, err := IE(SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	normalize := func(st *RunStats) *RunStats {
		cp := *st
		cp.WallNS = 0
		cp.Workers = 0
		cp.Stages = append([]StageStats(nil), st.Stages...)
		for i := range cp.Stages {
			cp.Stages[i].WallNS = 0
			cp.Stages[i].ShardTasks = nil
		}
		// Span wall-clock fields and shard placement are scheduling-
		// dependent by design; latency histograms are not and stay in.
		cp.Spans = nil
		cp.SpansDropped = 0
		return &cp
	}
	var want *RunStats
	for _, workers := range []int{1, 4} {
		res, err := Run(context.Background(), Request{Pipeline: PipelineSEH, Browser: br, Seed: 16, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rep := res.SEH
		got := normalize(rep.Stats)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("normalized stats differ between worker counts:\n want: %+v\n  got: %+v", want, got)
		}
	}
}
