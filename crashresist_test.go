package crashresist

import (
	"context"
	"strings"
	"testing"
)

func TestPublicServerWorkflow(t *testing.T) {
	srv, err := Server("nginx")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Request{Server: srv, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Syscall
	if got := rep.Usable(); len(got) != 1 || got[0] != "recv" {
		t.Errorf("usable = %v", got)
	}
}

func TestPublicBrowserWorkflow(t *testing.T) {
	br, err := IE(SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Request{Pipeline: PipelineAPI, Browser: br, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	funnel := res.Funnel
	if funnel.Controllable != 0 {
		t.Errorf("controllable = %d", funnel.Controllable)
	}
	res, err = Run(context.Background(), Request{Pipeline: PipelineSEH, Browser: br, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	sehRep := res.SEH
	pw := PriorWork(sehRep)
	if !pw.IECatchAllFound {
		t.Error("MUTX catch-all not found via public API")
	}
}

func TestPublicOracleWorkflow(t *testing.T) {
	br, err := IE(SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	env, err := br.NewEnv(14)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Start(); err != nil {
		t.Fatal(err)
	}
	hidden, err := PlantHiddenRegion(env.Proc, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewIEOracle(env)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScanner(o)
	res, err := s.Probe(hidden)
	if err != nil || res != ProbeMapped {
		t.Errorf("hidden region probe = %v %v", res, err)
	}
	if s.Stats.Crashes != 0 {
		t.Errorf("crashes = %d", s.Stats.Crashes)
	}
}

func TestFormatTableI(t *testing.T) {
	servers, err := Servers()
	if err != nil {
		t.Fatal(err)
	}
	var reports []*SyscallReport
	for _, srv := range servers[:2] { // nginx + cherokee keep the test quick
		res, err := Run(context.Background(), Request{Server: srv, Seed: 15})
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Syscall
		reports = append(reports, rep)
	}
	table := FormatTableI(reports)
	for _, want := range []string{"nginx", "cherokee", "recv", "epoll_wait", "⊕", "±"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestFormatTablesIIAndIII(t *testing.T) {
	br, err := IE(SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Request{Pipeline: PipelineSEH, Browser: br, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.SEH
	t2 := FormatTableII(rep, NamedDLLs())
	t3 := FormatTableIII(rep, NamedDLLs())
	if !strings.Contains(t2, "jscript9.dll") || !strings.Contains(t3, "ntdll.dll") {
		t.Errorf("tables missing named DLLs:\n%s\n%s", t2, t3)
	}
	if !strings.Contains(t3, "totals:") {
		t.Error("table III missing totals line")
	}
}

func TestFormatFunnel(t *testing.T) {
	br, err := IE(SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Request{Pipeline: PipelineAPI, Browser: br, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Funnel
	out := FormatFunnel(rep)
	for _, want := range []string{"crash-resistant", "JS context", "controllable"} {
		if !strings.Contains(out, want) {
			t.Errorf("funnel missing %q:\n%s", want, out)
		}
	}
}

func TestTableISyscalls(t *testing.T) {
	rows := TableISyscalls()
	if len(rows) != 13 {
		t.Errorf("Table I rows = %d, want 13", len(rows))
	}
}
