package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"crashresist"
)

func TestEmitErrorSentinels(t *testing.T) {
	cases := []struct {
		name string
		cfg  config
		want error
	}{
		{"unknown table", config{table: "9", format: "text", req: crashresist.Request{Scale: "small"}}, crashresist.ErrUnknownTable},
		{"unknown scale", config{table: "1", format: "text", req: crashresist.Request{Scale: "huge"}}, crashresist.ErrBadParams},
		{"unknown format", config{table: "1", format: "xml", req: crashresist.Request{Scale: "small"}}, crashresist.ErrBadParams},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := emit(io.Discard, tc.cfg)
			if !errors.Is(err, tc.want) {
				t.Errorf("emit(%+v) = %v, want %v", tc.cfg, err, tc.want)
			}
		})
	}
}

// TestEmitJSON checks the machine-readable rendering: the funnel artifact
// decodes into the document shape and carries its run stats.
func TestEmitJSON(t *testing.T) {
	var buf bytes.Buffer
	cfg := config{table: "funnel", format: "json", req: crashresist.Request{Scale: "small", Seed: goldenSeed, Workers: 2}}
	if _, err := emit(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if doc.Funnel == nil {
		t.Fatal("document missing funnel artifact")
	}
	if doc.TableI != nil || doc.SEH != nil || doc.Prior != nil || doc.Rate != nil {
		t.Error("unrequested artifacts present in document")
	}
	if doc.Funnel.Stats == nil || doc.Funnel.Stats.Pipeline != "api" {
		t.Errorf("funnel stats = %+v, want api pipeline record", doc.Funnel.Stats)
	}
	if doc.Funnel.Stats.Counter(crashresist.CtrProbes) == 0 {
		t.Error("no fuzzing probes counted")
	}
}

// TestTraceExportAndProvenancePaperScale runs the full paper-scale artifact
// bundle once, exports the runs it returns as a Chrome trace, and checks the
// two machine-readable acceptance surfaces: the Chrome trace validates as JSON
// with at least one span per pipeline stage of every run, and every
// primitive row of Tables I/II/III carries a non-empty provenance chain.
func TestTraceExportAndProvenancePaperScale(t *testing.T) {
	var out, trace bytes.Buffer
	cfg := config{table: "all", format: "json", req: crashresist.Request{Scale: "paper", Seed: goldenSeed, Workers: 4}}
	runs, err := emit(&out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := crashresist.WriteChromeTrace(&trace, runs...); err != nil {
		t.Fatal(err)
	}

	var tdoc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &tdoc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	stagesPerRun := map[int]map[string]bool{}
	kinds := map[string]bool{}
	for _, ev := range tdoc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		kinds[ev.Cat] = true
		if ev.Cat == "stage" {
			if stagesPerRun[ev.Pid] == nil {
				stagesPerRun[ev.Pid] = map[string]bool{}
			}
			stagesPerRun[ev.Pid][ev.Name] = true
		}
	}
	for _, k := range []string{"run", "pipeline", "stage", "shard", "job"} {
		if !kinds[k] {
			t.Errorf("trace missing %q spans", k)
		}
	}
	// 9 runs feed the bundle: 5 servers, IE funnel, IE SEH, and the prior-
	// work IE+Firefox pair. Each must contribute at least one stage span.
	if len(stagesPerRun) < 9 {
		t.Errorf("trace covers %d runs, want >= 9", len(stagesPerRun))
	}
	for pid, stages := range stagesPerRun {
		if len(stages) == 0 {
			t.Errorf("run pid=%d has no stage spans", pid)
		}
	}

	var doc document
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("decode document: %v", err)
	}
	for _, rep := range doc.TableI {
		if len(rep.Findings) != len(rep.Provenance) {
			t.Errorf("%s: %d findings, %d provenance chains", rep.Server, len(rep.Findings), len(rep.Provenance))
		}
		for _, p := range rep.Provenance {
			if len(p.Chain) == 0 {
				t.Errorf("%s: primitive %q has an empty chain", rep.Server, p.Primitive)
			}
		}
	}
	if doc.Funnel == nil || len(doc.Funnel.Provenance) != len(doc.Funnel.Classifications) {
		t.Error("funnel provenance does not cover the classifications")
	}
	if doc.SEH == nil || len(doc.SEH.Provenance) != len(doc.SEH.Candidates) {
		t.Error("SEH provenance does not cover the candidates")
	}
	if doc.SEH != nil {
		for _, p := range doc.SEH.Provenance {
			if len(p.Chain) == 0 {
				t.Errorf("SEH primitive %q has an empty chain", p.Primitive)
			}
		}
	}
}
