package fuzz

import (
	"reflect"
	"sync"
	"testing"

	"crashresist/internal/faultinject"
	"crashresist/internal/targets"
	"crashresist/internal/winapi"
)

// TestForkedProbesMatchFresh runs the battery against every pointer-taking
// descriptor of the small and the paper API corpus, forking each probe and
// booting a fresh harness for it: outcomes, return values, per-probe
// instructions and Stats must agree, with and without fault plans. The
// plans differ in whether they fire at the harness's exception dispatch,
// the one fault site a probe reaches; the last one does.
func TestForkedProbesMatchFresh(t *testing.T) {
	corpora := []struct {
		name   string
		params winapi.CorpusParams
	}{
		{"small", targets.SmallBrowserParams().API},
		{"paper", winapi.DefaultCorpusParams()},
	}
	plans := []*faultinject.Plan{
		nil,
		faultinject.Default(1),
		faultinject.New(2).Enable(faultinject.SiteVMDispatch, faultinject.SiteConfig{Rate: 0.5, Mode: faultinject.ModePermanent}),
		faultinject.New(3).Enable(faultinject.SiteVMDispatch, faultinject.SiteConfig{Rate: 0.5, Mode: faultinject.ModePermanent}),
	}
	for _, c := range corpora {
		reg, err := winapi.GenerateCorpus(c.params)
		if err != nil {
			t.Fatal(err)
		}
		for pi, plan := range plans {
			forked, fresh := New(reg, 42), New(reg, 42)
			forked.FaultPlan, fresh.FaultPlan = plan, plan
			UseFreshProbes(fresh)
			var injected uint64
			for _, d := range reg.All() {
				if !d.HasPointerArg() {
					continue
				}
				got, err := forked.FuzzOne(d)
				if err != nil {
					t.Fatalf("%s plan %d %s forked: %v", c.name, pi, d.Name, err)
				}
				want, err := fresh.FuzzOne(d)
				if err != nil {
					t.Fatalf("%s plan %d %s fresh: %v", c.name, pi, d.Name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s plan %d %s: forked %+v, fresh %+v", c.name, pi, d.Name, got, want)
				}
				injected += got.Stats.FaultsInjected
			}
			if pi == 3 && injected == 0 {
				t.Errorf("%s plan %d: no probe drew an injected fault", c.name, pi)
			}
		}
	}
}

// TestFuzzOneConcurrent runs the battery over the pointer descriptors of
// the small corpus on four goroutines sharing one fuzzer, whose probes all
// fork its one booted harness: every result must equal a sequential
// fuzzer's. Under -race this checks that forking the harness writes
// nothing to it.
func TestFuzzOneConcurrent(t *testing.T) {
	reg, err := winapi.GenerateCorpus(targets.SmallBrowserParams().API)
	if err != nil {
		t.Fatal(err)
	}
	var ptrs []*winapi.Descriptor
	for _, d := range reg.All() {
		if d.HasPointerArg() {
			ptrs = append(ptrs, d)
		}
	}
	want := make([]FuncResult, len(ptrs))
	seq := New(reg, 42)
	for i, d := range ptrs {
		if want[i], err = seq.FuzzOne(d); err != nil {
			t.Fatal(err)
		}
	}
	const lanes = 4
	got := make([]FuncResult, len(ptrs))
	errs := make([]error, lanes)
	shared := New(reg, 42)
	var wg sync.WaitGroup
	for lane := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lane; i < len(ptrs) && errs[lane] == nil; i += lanes {
				got[i], errs[lane] = shared.FuzzOne(ptrs[i])
			}
		}()
	}
	wg.Wait()
	for lane, err := range errs {
		if err != nil {
			t.Fatalf("lane %d: %v", lane, err)
		}
	}
	for i := range ptrs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: concurrent %+v, sequential %+v", ptrs[i].Name, got[i], want[i])
		}
	}
}
