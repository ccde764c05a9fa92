package fuzz

import (
	"testing"

	"crashresist/internal/winapi"
)

func smallRegistry(tb testing.TB) *winapi.Registry {
	tb.Helper()
	r := winapi.NewRegistry()
	r.Register(winapi.Descriptor{Name: "Pure", NArgs: 2, Cat: winapi.CatNoPointer})
	r.Register(winapi.Descriptor{Name: "Graceful1", NArgs: 2, PtrArgs: []int{0}, Cat: winapi.CatKernelValidated})
	r.Register(winapi.Descriptor{Name: "Graceful2", NArgs: 3, PtrArgs: []int{1}, Cat: winapi.CatQueryStruct, Writes: true})
	r.Register(winapi.Descriptor{Name: "Crashy1", NArgs: 2, PtrArgs: []int{0}, Cat: winapi.CatUserDeref})
	r.Register(winapi.Descriptor{Name: "Crashy2", NArgs: 2, PtrArgs: []int{0, 1}, Cat: winapi.CatUserDeref, Writes: true})
	return r
}

func TestFuzzOneGraceful(t *testing.T) {
	r := smallRegistry(t)
	d, _ := r.Lookup("Graceful1")
	f := New(r, 5)
	res, err := f.FuzzOne(d)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CrashResistant {
		t.Errorf("Graceful1 should be crash resistant: %+v", res.Probes)
	}
	if len(res.Probes) != len(InvalidPointers) {
		t.Errorf("probes = %d, want %d", len(res.Probes), len(InvalidPointers))
	}
	for _, pr := range res.Probes {
		if pr.Outcome != OutcomeGraceful {
			t.Errorf("probe %#x outcome = %v", pr.Pointer, pr.Outcome)
		}
		if pr.Ret != winapi.ErrInvalidPointer {
			t.Errorf("probe %#x ret = %d, want error status", pr.Pointer, pr.Ret)
		}
	}
}

func TestFuzzOneCrashy(t *testing.T) {
	r := smallRegistry(t)
	d, _ := r.Lookup("Crashy1")
	f := New(r, 5)
	res, err := f.FuzzOne(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashResistant {
		t.Errorf("Crashy1 must not be crash resistant: %+v", res.Probes)
	}
	crashes := 0
	for _, pr := range res.Probes {
		if pr.Outcome == OutcomeCrash {
			crashes++
		}
	}
	if crashes == 0 {
		t.Error("no probe crashed")
	}
}

func TestFuzzAllSummary(t *testing.T) {
	r := smallRegistry(t)
	f := New(r, 5)
	sum, err := f.FuzzAll()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != 5 {
		t.Errorf("Total = %d", sum.Total)
	}
	if sum.WithPointer != 4 {
		t.Errorf("WithPointer = %d", sum.WithPointer)
	}
	if sum.CrashResistant != 2 {
		t.Errorf("CrashResistant = %d, want 2", sum.CrashResistant)
	}
	if len(sum.Results) != 4 {
		t.Errorf("Results = %d", len(sum.Results))
	}
}

func TestFuzzAllOnGeneratedCorpusSample(t *testing.T) {
	// A scaled-down corpus with the paper's proportions: the fuzzer must
	// rediscover exactly the generated crash-resistant count, black-box.
	reg, err := winapi.GenerateCorpus(winapi.CorpusParams{
		Seed:             99,
		Total:            200,
		WithPointer:      120,
		CrashResistant:   9,
		QueryStructShare: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := New(reg, 6)
	sum, err := f.FuzzAll()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != 200 || sum.WithPointer != 120 {
		t.Errorf("funnel head = %d/%d", sum.Total, sum.WithPointer)
	}
	if sum.CrashResistant != 9 {
		t.Errorf("CrashResistant = %d, want 9 (black-box rediscovery)", sum.CrashResistant)
	}
	// Cross-check against the generator's hidden categories.
	for _, res := range sum.Results {
		d, ok := reg.ByID(res.ID)
		if !ok {
			t.Fatalf("unknown id %d", res.ID)
		}
		wantResistant := d.Cat == winapi.CatKernelValidated || d.Cat == winapi.CatQueryStruct
		if res.CrashResistant != wantResistant {
			t.Errorf("%s (%v): fuzzer says resistant=%v", d.Name, d.Cat, res.CrashResistant)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeGraceful.String() != "graceful" || OutcomeCrash.String() != "crash" || Outcome(9).String() != "outcome?" {
		t.Error("outcome strings wrong")
	}
}
