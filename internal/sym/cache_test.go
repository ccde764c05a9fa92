package sym

import (
	"sync"
	"testing"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/isa"
	"crashresist/internal/vm"
)

// TestCacheCountsPerKey races eight executors, each in its own process, on
// one pure filter body through a shared cache. However the analyses
// interleave, the body is one miss and every other analysis a hit.
func TestCacheCountsPerKey(t *testing.T) {
	b := asm.NewBuilder("filters.dll", bin.KindLibrary)
	b.Func("f").MovRI(isa.R0, 1).Ret().EndFunc()
	b.Export("f", "f")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	off, ok := img.Export("f")
	if !ok {
		t.Fatal("no export f")
	}

	const workers = 8
	cache := NewCache()
	start := make(chan struct{})
	var wg sync.WaitGroup
	verdicts := make([]Verdict, workers)
	for i := 0; i < workers; i++ {
		p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: int64(i)})
		mod, err := p.LoadImage(img)
		if err != nil {
			t.Fatal(err)
		}
		exec := NewExecutor(p)
		exec.Cache = cache
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			verdicts[i] = exec.AnalyzeFilterIn(mod, off).Verdict
		}(i)
	}
	close(start)
	wg.Wait()

	for i, v := range verdicts {
		if v != VerdictAccepts {
			t.Errorf("executor %d verdict = %v, want accepts", i, v)
		}
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != workers-1 || st.Uncacheable != 0 {
		t.Errorf("cache stats = %+v, want 1 miss, %d hits, 0 uncacheable", st, workers-1)
	}
}
