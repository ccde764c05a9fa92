package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestPipelineCheckCatchesAlteredGolden runs the Tables II/III pipeline
// once and checks it against the goldens as they are, then against a copy
// with one byte changed, which must drop ok_share below 1.
func TestPipelineCheckCatchesAlteredGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper-scale SEH pipeline")
	}
	ctx := context.Background()
	p, err := newPipeline(config{root: ".."}, "seh", []string{"table2", "table3"})
	if err != nil {
		t.Fatal(err)
	}
	env, _, err := p.build()
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.run(ctx, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.check(ctx, env, out); v.attempted != 1 || v.failed != 0 {
		t.Fatalf("output differs from the goldens: %+v", v)
	}
	b := []byte(p.golden)
	b[len(b)/2] ^= 1
	p.golden = string(b)
	if v := p.check(ctx, env, out); v.failed != 1 {
		t.Errorf("a golden with one byte changed still verified: %+v", v)
	}
}

// TestBenchmarkManifestMatches keeps BENCHMARK.json's workloads and
// per-layer metrics in step with the code that produces them. The
// manifest may leave out a workload the benchmark can run (service).
func TestBenchmarkManifestMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, w := range manifest.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("manifest workload %q is not one the benchmark runs", w.Name)
		}
	}
	for _, d := range layerDefs {
		for _, w := range d.measuredOn {
			if !slices.Contains(workloadNames, w) {
				t.Errorf("per-layer %s is measured on %q, which is not a workload", d.name, w)
			}
		}
	}
	if len(manifest.PerLayer) != len(layerDefs) {
		t.Fatalf("manifest has %d per-layer metrics, code %d", len(manifest.PerLayer), len(layerDefs))
	}
	for i, m := range manifest.PerLayer {
		if d := layerDefs[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer %d: manifest %s/%s, code %s/%s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}
