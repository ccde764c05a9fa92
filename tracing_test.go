package crashresist

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"crashresist/internal/metrics"
)

// stageLatencies extracts the per-stage latency snapshots from a run.
func stageLatencies(t *testing.T, st *RunStats) map[string]*LatencySnapshot {
	t.Helper()
	if st == nil {
		t.Fatal("report carries no RunStats")
	}
	out := map[string]*LatencySnapshot{}
	for _, s := range st.Stages {
		out[s.Name] = s.Latency
	}
	return out
}

// TestLatencyHistogramsWorkerInvariant is the satellite property test: the
// per-stage latency histograms record deterministic virtual costs, so their
// buckets, counts, sums, maxima and quantiles must be identical at 1, 4 and
// 8 workers and across repeat runs of the same seed.
func TestLatencyHistogramsWorkerInvariant(t *testing.T) {
	srv, err := Server("nginx")
	if err != nil {
		t.Fatal(err)
	}
	br, err := IE(SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}

	pipelines := map[string]func(workers int) (*RunStats, error){
		"syscall": func(w int) (*RunStats, error) {
			res, err := Run(context.Background(), Request{Server: srv, Seed: 21, Workers: w})
			if err != nil {
				return nil, err
			}
			rep := res.Syscall
			return rep.Stats, nil
		},
		"api": func(w int) (*RunStats, error) {
			res, err := Run(context.Background(), Request{Pipeline: PipelineAPI, Browser: br, Seed: 22, Workers: w})
			if err != nil {
				return nil, err
			}
			rep := res.Funnel
			return rep.Stats, nil
		},
		"seh": func(w int) (*RunStats, error) {
			res, err := Run(context.Background(), Request{Pipeline: PipelineSEH, Browser: br, Seed: 23, Workers: w})
			if err != nil {
				return nil, err
			}
			rep := res.SEH
			return rep.Stats, nil
		},
	}

	for name, run := range pipelines {
		t.Run(name, func(t *testing.T) {
			var want map[string]*LatencySnapshot
			// Two passes at 1 worker prove repeat-run stability; 4 and 8
			// prove worker-count invariance.
			for _, workers := range []int{1, 1, 4, 8} {
				stats, err := run(workers)
				if err != nil {
					t.Fatal(err)
				}
				got := stageLatencies(t, stats)
				recorded := 0
				for _, l := range got {
					if l != nil {
						recorded++
					}
				}
				if recorded == 0 {
					t.Fatal("no stage recorded a latency histogram")
				}
				if want == nil {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d latency histograms differ:\n got %s\nwant %s",
						workers, fmtLatencies(got), fmtLatencies(want))
				}
			}
		})
	}
}

func fmtLatencies(m map[string]*LatencySnapshot) string {
	out := ""
	for name, l := range m {
		out += fmt.Sprintf("\n  %s: %+v", name, l)
	}
	return out
}

// TestProvenanceChains checks the acceptance criterion that every primitive
// appearing in a Table I/II/III report carries a non-empty evidence chain,
// and that the chains key to their rows and follow pipeline stage order.
func TestProvenanceChains(t *testing.T) {
	t.Run("syscall", func(t *testing.T) {
		srv, err := Server("nginx")
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), Request{Server: srv, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Syscall
		if len(rep.Findings) == 0 {
			t.Fatal("no findings to carry provenance")
		}
		if len(rep.Provenance) != len(rep.Findings) {
			t.Fatalf("provenance entries = %d, findings = %d", len(rep.Provenance), len(rep.Findings))
		}
		for i, f := range rep.Findings {
			p := rep.Provenance[i]
			wantKey := fmt.Sprintf("%s/arg%d", f.Syscall, f.ArgIndex)
			if p.Primitive != wantKey {
				t.Errorf("provenance[%d] keyed %q, want %q", i, p.Primitive, wantKey)
			}
			checkChain(t, p, "taint", "validate")
		}
	})

	t.Run("api", func(t *testing.T) {
		br, err := IE(SmallBrowserParams())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), Request{Pipeline: PipelineAPI, Browser: br, Seed: 22})
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Funnel
		if len(rep.Classifications) == 0 {
			t.Fatal("no classifications to carry provenance")
		}
		if len(rep.Provenance) != len(rep.Classifications) {
			t.Fatalf("provenance entries = %d, classifications = %d",
				len(rep.Provenance), len(rep.Classifications))
		}
		for i, cls := range rep.Classifications {
			p := rep.Provenance[i]
			if p.Primitive != cls.API {
				t.Errorf("provenance[%d] keyed %q, want %q", i, p.Primitive, cls.API)
			}
			checkChain(t, p, "fuzz", "classify")
		}
	})

	t.Run("seh", func(t *testing.T) {
		br, err := IE(SmallBrowserParams())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), Request{Pipeline: PipelineSEH, Browser: br, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		rep := res.SEH
		if len(rep.Candidates) == 0 {
			t.Fatal("no candidates to carry provenance")
		}
		if len(rep.Provenance) != len(rep.Candidates) {
			t.Fatalf("provenance entries = %d, candidates = %d", len(rep.Provenance), len(rep.Candidates))
		}
		for i, c := range rep.Candidates {
			p := rep.Provenance[i]
			wantKey := fmt.Sprintf("%s/scope-%d", c.Module, c.Scope)
			if p.Primitive != wantKey {
				t.Errorf("provenance[%d] keyed %q, want %q", i, p.Primitive, wantKey)
			}
			checkChain(t, p, "extract", "crossref")
		}
	})
}

// checkChain asserts a chain is non-empty, every step names its stage, and
// the chain starts/ends with the expected pipeline stages.
func checkChain(t *testing.T, p PrimitiveProvenance, first, last string) {
	t.Helper()
	if len(p.Chain) == 0 {
		t.Errorf("primitive %q has an empty evidence chain", p.Primitive)
		return
	}
	for _, s := range p.Chain {
		if s.Stage == "" {
			t.Errorf("primitive %q has a step without a stage: %+v", p.Primitive, s)
		}
	}
	if got := p.Chain[0].Stage; got != first {
		t.Errorf("primitive %q chain starts at %q, want %q", p.Primitive, got, first)
	}
	if got := p.Chain[len(p.Chain)-1].Stage; got != last {
		t.Errorf("primitive %q chain ends at %q, want %q", p.Primitive, got, last)
	}
}

// TestProvenanceWorkerInvariant pins the chains themselves to the
// determinism contract: byte-identical at any worker count.
func TestProvenanceWorkerInvariant(t *testing.T) {
	br, err := IE(SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	var want []PrimitiveProvenance
	for _, workers := range []int{1, 4, 8} {
		res, err := Run(context.Background(), Request{Pipeline: PipelineSEH, Browser: br, Seed: 23, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rep := res.SEH
		if want == nil {
			want = rep.Provenance
			continue
		}
		if !reflect.DeepEqual(rep.Provenance, want) {
			t.Errorf("workers=%d provenance differs:\n got %+v\nwant %+v", workers, rep.Provenance, want)
		}
	}
}

// TestRunSpanTree checks a real pipeline run emits the full span hierarchy
// with resolvable parent links.
func TestRunSpanTree(t *testing.T) {
	br, err := IE(SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Request{Pipeline: PipelineSEH, Browser: br, Seed: 23, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.SEH
	st := rep.Stats
	if st == nil || len(st.Spans) == 0 {
		t.Fatal("run recorded no spans")
	}
	byID := map[string]TraceSpan{}
	kinds := map[string]int{}
	for _, s := range st.Spans {
		byID[s.ID] = s
		kinds[s.Kind]++
	}
	for _, k := range []string{metrics.SpanRun, metrics.SpanPipeline, metrics.SpanStage, metrics.SpanShard, metrics.SpanJob} {
		if kinds[k] == 0 {
			t.Errorf("no %q spans in run tree (kinds: %v)", k, kinds)
		}
	}
	for _, s := range st.Spans {
		if s.Kind == metrics.SpanRun {
			if s.Parent != "" {
				t.Errorf("run span has parent %q", s.Parent)
			}
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			t.Errorf("span %s (%s %s) has dangling parent %s", s.ID, s.Kind, s.Name, s.Parent)
		}
	}
	// One stage span per recorded stage.
	if kinds[metrics.SpanStage] != len(st.Stages) {
		t.Errorf("stage spans = %d, stage stats = %d", kinds[metrics.SpanStage], len(st.Stages))
	}
}
