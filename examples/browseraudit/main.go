// Browseraudit runs both Windows-side pipelines against the Internet
// Explorer model: the §V-B API funnel and the Tables II/III exception-
// handler inventory, finishing with the §VII-A prior-work checks against
// the Firefox model.
//
//	go run ./examples/browseraudit            # test scale
//	go run ./examples/browseraudit -paper     # full 187-DLL / 20,672-API scale
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"crashresist"
)

func main() {
	paper := flag.Bool("paper", false, "use the full paper-scale corpora")
	flag.Parse()
	if err := run(os.Stdout, *paper); err != nil {
		log.Fatal(err)
	}
}

// Run executes the audit at test scale, writing its report to w. It is
// exported so the smoke tests can drive the whole flow in-process.
func Run(w io.Writer) error { return run(w, false) }

func run(w io.Writer, paper bool) error {
	params := crashresist.SmallBrowserParams()
	if paper {
		params = crashresist.PaperBrowserParams()
	}

	fmt.Fprintln(w, "building Internet Explorer 11 model ...")
	ie, err := crashresist.IE(params)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "pipeline 2: Windows API fuzzing + call-site harvesting ...")
	ctx := context.Background()
	res, err := crashresist.Run(ctx, crashresist.Request{Pipeline: crashresist.PipelineAPI, Browser: ie, Seed: 42})
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, crashresist.FormatFunnel(res.Funnel))

	fmt.Fprintln(w, "pipeline 3: scope-table extraction + symbolic filter execution ...")
	res, err = crashresist.Run(ctx, crashresist.Request{Pipeline: crashresist.PipelineSEH, Browser: ie, Seed: 42})
	if err != nil {
		return err
	}
	sehRep := res.SEH
	fmt.Fprintln(w)
	fmt.Fprintln(w, crashresist.FormatTableII(sehRep, crashresist.NamedDLLs()))
	fmt.Fprintln(w, crashresist.FormatTableIII(sehRep, crashresist.NamedDLLs()))

	fmt.Fprintf(w, "candidates for manual vetting: %d on-path accepting handlers\n",
		len(sehRep.Candidates))

	fmt.Fprintln(w, "\n§VII-A: locating the previously published primitives ...")
	iePW := crashresist.PriorWork(sehRep)
	fmt.Fprintf(w, "  IE MUTX::Enter catch-all rediscovered automatically: %v\n", iePW.IECatchAllFound)
	fmt.Fprintf(w, "  IE post-update filter flagged for manual analysis:   %v\n", iePW.IEPostUpdateNeedsManual)

	ff, err := crashresist.Firefox(params)
	if err != nil {
		return err
	}
	res, err = crashresist.Run(ctx, crashresist.Request{Pipeline: crashresist.PipelineSEH, Browser: ff, Seed: 42})
	if err != nil {
		return err
	}
	ffPW := crashresist.PriorWork(res.SEH)
	fmt.Fprintf(w, "  Firefox VEH primitive missed by the static pipeline: %v\n", ffPW.FirefoxVEHMissed)
	return nil
}
