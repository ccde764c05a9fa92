// Serveraudit reproduces Table I end to end: the Linux syscall pipeline runs
// over all five server models, and the resulting candidate matrix is printed
// in the paper's format together with the per-server findings.
//
//	go run ./examples/serveraudit
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

// Run executes the audit, writing its report to w. It is exported so the
// smoke tests can drive the whole flow in-process.
func Run(w io.Writer) error {
	servers, err := crashresist.Servers()
	if err != nil {
		return err
	}

	for _, srv := range servers {
		fmt.Fprintf(w, "auditing %s ...\n", srv.Name)
	}
	// All five pipelines fan out across the worker pool; reports come
	// back in server order regardless of scheduling.
	res, err := crashresist.Run(context.Background(), crashresist.Request{Servers: servers, Seed: 42})
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	reports := res.Servers

	fmt.Fprintln(w)
	fmt.Fprintln(w, crashresist.FormatTableI(reports))

	fmt.Fprintln(w, "per-server detail:")
	for _, rep := range reports {
		fmt.Fprintf(w, "\n%s:\n", rep.Server)
		fmt.Fprintf(w, "  usable primitives: %v\n", rep.Usable())
		fmt.Fprintf(w, "  observed-only syscalls: %v\n", rep.ObservedOnly)
		for _, f := range rep.Findings {
			if f.Status == crashresist.StatusFalsePositive {
				fmt.Fprintf(w, "  FALSE POSITIVE: %s — %s\n", f.Syscall, f.Detail)
			}
		}
	}

	// The paper's headline: one usable primitive per server, plus the
	// Memcached false positive that only a service-level check exposes.
	total := 0
	for _, rep := range reports {
		total += len(rep.Usable())
	}
	fmt.Fprintf(w, "\ntotal usable crash-resistant primitives across servers: %d\n", total)
	return nil
}
