// Quickstart: discover a crash-resistant primitive in one server and use it
// as a memory oracle — the paper's complete loop in under a minute.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"crashresist"
)

func main() {
	if err := Run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// Run executes the example, writing its report to w. It is exported so the
// smoke tests can drive the whole flow in-process.
func Run(w io.Writer) error {
	// 1. Build the Nginx 1.9 model — a real M64 binary with the
	//    connection-buffer architecture of §VI-C.
	srv, err := crashresist.Server("nginx")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "target: %s (%d bytes of code, %d functions)\n",
		srv.Name, len(srv.Image.Text), len(srv.Image.Symbols))

	// 2. Run the discovery pipeline: taint-tracked test suite, candidate
	//    extraction, corruption validation.
	res, err := crashresist.Run(context.Background(), crashresist.Request{Server: srv, Seed: 42})
	if err != nil {
		return err
	}
	report := res.Syscall
	fmt.Fprintln(w, "\ndiscovery results:")
	for _, f := range report.Findings {
		fmt.Fprintf(w, "  %-10s → %-20s (%s)\n", f.Syscall, f.Status, f.Detail)
	}
	usable := report.Usable()
	if len(usable) == 0 {
		return fmt.Errorf("no usable primitive found")
	}
	fmt.Fprintf(w, "\nusable crash-resistant primitive: %s\n", usable[0])

	// 3. Weaponize it: boot a victim instance, hide a SafeStack-style
	//    region, and let the oracle find it without crashing the server.
	env, err := srv.NewEnv(42)
	if err != nil {
		return err
	}
	const regionSize = 32 * 4096
	hidden, err := crashresist.PlantHiddenRegion(env.Proc, regionSize)
	if err != nil {
		return err
	}

	scanner := crashresist.NewScanner(crashresist.NewNginxOracle(env))
	base, err := scanner.LocateHiddenRegion(hidden-16*regionSize, hidden+16*regionSize, regionSize)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nprobing via %s:\n", scanner.Oracle.Name())
	fmt.Fprintf(w, "  hidden region located at %#x (truth: %#x)\n", base, hidden)
	fmt.Fprintf(w, "  probes: %d, crashes: %d\n", scanner.Stats.Probes, scanner.Stats.Crashes)
	if !srv.ServiceCheck(env) {
		return fmt.Errorf("server stopped serving")
	}
	fmt.Fprintln(w, "  server still serves clients — the scan was invisible")
	return nil
}
