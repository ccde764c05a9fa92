package crashresist_test

import (
	"context"
	"fmt"

	"crashresist"
)

// The Linux pipeline on a pre-built Nginx model finds the recv primitive of
// §VI-C.
func ExampleRun_server() {
	srv, err := crashresist.Server("nginx")
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := crashresist.Run(context.Background(), crashresist.Request{Server: srv, Seed: 42})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.Syscall.Usable())
	fmt.Println(res.Syscall.Status["write"])
	// Output:
	// [recv]
	// invalid(±)
}

// A discovered primitive probes memory without crashing the target.
func ExampleScanner_Probe() {
	br, err := crashresist.IE(crashresist.SmallBrowserParams())
	if err != nil {
		fmt.Println(err)
		return
	}
	env, err := br.NewEnv(42)
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := env.Start(); err != nil {
		fmt.Println(err)
		return
	}
	oracle, err := crashresist.NewIEOracle(env)
	if err != nil {
		fmt.Println(err)
		return
	}
	s := crashresist.NewScanner(oracle)
	res, err := s.Probe(0xdead0000) // never mapped in the user arena
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res, s.Stats.Crashes)
	// Output: unmapped 0
}

// The §V-B funnel collapses to zero controllable primitives.
func ExampleRun_browserAPIs() {
	res, err := crashresist.Run(context.Background(), crashresist.Request{
		Pipeline: crashresist.PipelineAPI,
		Target:   "ie",
		Seed:     42,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.Funnel.Controllable)
	// Output: 0
}

// Run is the single entry point behind every pipeline: name a target, get
// back the typed result envelope.
func ExampleRun() {
	res, err := crashresist.Run(context.Background(), crashresist.Request{
		Target: "nginx",
		Seed:   42,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.Schema, res.Pipeline, res.Target)
	fmt.Println(res.Syscall.Usable())
	// Output:
	// v1 syscall nginx
	// [recv]
}
