package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"crashresist"
	"crashresist/internal/service"
)

// TestBatchIsSeeded pins that a seed fixes the batch byte for byte and
// that another seed draws other inputs.
func TestBatchIsSeeded(t *testing.T) {
	enc := func(seed int64) []byte {
		data, err := json.Marshal(makeBatch(seed, batchJobs))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := enc(7), enc(7); !bytes.Equal(a, b) {
		t.Error("seed 7 drew two different batches")
	}
	if bytes.Equal(enc(7), enc(8)) {
		t.Error("seeds 7 and 8 drew the same batch")
	}
}

// TestBatchMixIsFixed checks the realized mix every seed shares: equal
// counts per kind, a quarter profiled, a quarter detected, the same
// number of distinct (target, seed) pairs, tenants alternating, and every
// job valid for the service.
func TestBatchMixIsFixed(t *testing.T) {
	var pairs0 int
	for seed := int64(1); seed <= 20; seed++ {
		batch := makeBatch(seed, batchJobs)
		kinds := make(map[string]int)
		pairs := make(map[string]bool)
		profiled, detected := 0, 0
		for i, spec := range batch {
			if err := spec.Validate(); err != nil {
				t.Fatalf("seed %d job %d invalid: %v", seed, i, err)
			}
			if spec.Tenant != tenants[i%len(tenants)] {
				t.Fatalf("seed %d job %d tenant %q", seed, i, spec.Tenant)
			}
			kinds[kindOf(spec.Request)]++
			if spec.IncludeProfile {
				profiled++
			}
			if spec.IncludeDetect {
				detected++
			}
			pair := spec.Request
			pair.IncludeProfile, pair.IncludeDetect = false, false
			pairs[requestKey(pair)] = true
		}
		for _, k := range serviceMix {
			if kinds[k.name] != batchJobs/len(serviceMix) {
				t.Errorf("seed %d: %d %s jobs, want %d", seed, kinds[k.name], k.name, batchJobs/len(serviceMix))
			}
		}
		if profiled != batchJobs/4 || detected != batchJobs/4 {
			t.Errorf("seed %d: %d profiled, %d detected, want %d each", seed, profiled, detected, batchJobs/4)
		}
		if seed == 1 {
			pairs0 = len(pairs)
		} else if len(pairs) != pairs0 {
			t.Errorf("seed %d: %d distinct pairs, seed 1 had %d", seed, len(pairs), pairs0)
		}
	}
}

// TestServiceCheckCatchesAlteredResult runs one job directly, presents
// it as a service result, and checks that altering one byte of the
// result drops ok_share below 1, as does a 429.
func TestServiceCheckCatchesAlteredResult(t *testing.T) {
	ctx := context.Background()
	w := &serviceWorkload{
		cfg:   config{root: t.TempDir()},
		batch: []service.JobSpec{{Schema: service.Schema, Request: crashresist.Request{Target: "nginx", Seed: 3}}},
		refs:  make(map[string][]byte),
	}
	env, _, err := w.build()
	if err != nil {
		t.Fatal(err)
	}
	defer w.release(env)
	res, err := crashresist.Run(ctx, crashresist.Request{Target: "nginx", Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	done := jobRecord{status: http.StatusAccepted, view: service.JobView{State: service.StateDone, Result: raw, SubmittedNS: 1, FinishedNS: 2}}
	if v := w.check(ctx, env, []jobRecord{done}); v.failed != 0 {
		t.Fatalf("unaltered result failed the check")
	}

	altered := done
	altered.view.Result = bytes.Replace(raw, []byte(`"nginx"`), []byte(`"nginy"`), 1)
	if bytes.Equal(altered.view.Result, raw) {
		t.Fatal("result has no server name to alter")
	}
	rejected := jobRecord{status: http.StatusTooManyRequests}
	v := w.check(ctx, env, []jobRecord{done, altered, rejected})
	if v.attempted != 3 || v.failed != 2 {
		t.Errorf("check = %d attempted, %d failed; want 3, 2", v.attempted, v.failed)
	}
}

func TestNormalizeResultDropsStatsAndCacheBytes(t *testing.T) {
	a := []byte(`{"schema":"v1","syscall":{"server":"x","stats":{"wall_ns":1}},"profile":{"samples":[{"kind":"cache_bytes","value":9},{"kind":"symex_steps","value":3}],"totals":{"cache_bytes":9,"symex_steps":3}}}`)
	b := []byte(`{"schema":"v1","syscall":{"server":"x","stats":{"wall_ns":2}},"profile":{"samples":[{"kind":"symex_steps","value":3}],"totals":{"symex_steps":3}}}`)
	na, err := normalizeResult(a)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := normalizeResult(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(na, nb) {
		t.Errorf("normalized results differ:\n%s\n%s", na, nb)
	}
}
