package discover

import (
	"context"
	"testing"

	"crashresist/internal/targets"
)

// analyzeServer runs the full pipeline for one server.
func analyzeServer(t *testing.T, name string) *SyscallReport {
	t.Helper()
	srv, err := targets.ServerByName(name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeServer(context.Background(), Config{Seed: 4242}, srv)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func wantStatus(t *testing.T, rep *SyscallReport, syscall string, want SyscallStatus) {
	t.Helper()
	if got := rep.Status[syscall]; got != want {
		t.Errorf("%s/%s = %v, want %v", rep.Server, syscall, got, want)
		for _, f := range rep.Findings {
			if f.Syscall == syscall {
				t.Logf("  finding: %+v", f)
			}
		}
	}
}

func TestAnalyzeNginx(t *testing.T) {
	rep := analyzeServer(t, "nginx")
	wantStatus(t, rep, "recv", StatusUsable)
	wantStatus(t, rep, "write", StatusInvalidCandidate)
	wantStatus(t, rep, "open", StatusInvalidCandidate)
	wantStatus(t, rep, "connect", StatusInvalidCandidate)
	wantStatus(t, rep, "mkdir", StatusObserved)
	wantStatus(t, rep, "unlink", StatusObserved)
	wantStatus(t, rep, "epoll_wait", StatusObserved)
	wantStatus(t, rep, "read", StatusObserved)
	wantStatus(t, rep, "chmod", StatusNotObserved)
	wantStatus(t, rep, "symlink", StatusNotObserved)
	if got := rep.Usable(); len(got) != 1 || got[0] != "recv" {
		t.Errorf("usable = %v, want [recv]", got)
	}
}

func TestAnalyzeCherokee(t *testing.T) {
	rep := analyzeServer(t, "cherokee")
	wantStatus(t, rep, "epoll_wait", StatusUsable)
	wantStatus(t, rep, "chmod", StatusInvalidCandidate)
	wantStatus(t, rep, "recv", StatusInvalidCandidate)
	wantStatus(t, rep, "write", StatusInvalidCandidate)
	wantStatus(t, rep, "open", StatusObserved)
	// epoll_ctl shares the epoll_wait pointer's storage; once the worker
	// stalls in failing epoll_wait calls, the corrupted value never
	// reaches epoll_ctl, so the candidate is reported unconfirmed.
	wantStatus(t, rep, "epoll_ctl", StatusUntriggered)
	if got := rep.Usable(); len(got) != 1 || got[0] != "epoll_wait" {
		t.Errorf("usable = %v, want [epoll_wait]", got)
	}
}

func TestAnalyzeLighttpd(t *testing.T) {
	rep := analyzeServer(t, "lighttpd")
	wantStatus(t, rep, "read", StatusUsable)
	wantStatus(t, rep, "open", StatusInvalidCandidate)
	wantStatus(t, rep, "unlink", StatusInvalidCandidate)
	wantStatus(t, rep, "write", StatusInvalidCandidate)
	wantStatus(t, rep, "mkdir", StatusObserved)
	wantStatus(t, rep, "symlink", StatusObserved)
	wantStatus(t, rep, "epoll_wait", StatusObserved)
	if got := rep.Usable(); len(got) != 1 || got[0] != "read" {
		t.Errorf("usable = %v, want [read]", got)
	}
}

func TestAnalyzeMemcached(t *testing.T) {
	rep := analyzeServer(t, "memcached")
	wantStatus(t, rep, "read", StatusUsable)
	// The epoll_wait candidate is the paper's false positive: the naive
	// aliveness check passes, the service check exposes it.
	wantStatus(t, rep, "epoll_wait", StatusFalsePositive)
	wantStatus(t, rep, "recvfrom", StatusInvalidCandidate)
	wantStatus(t, rep, "send", StatusInvalidCandidate)
	wantStatus(t, rep, "open", StatusObserved)
	if got := rep.Usable(); len(got) != 1 || got[0] != "read" {
		t.Errorf("usable = %v, want [read]", got)
	}
}

func TestAnalyzePostgres(t *testing.T) {
	rep := analyzeServer(t, "postgresql")
	wantStatus(t, rep, "epoll_wait", StatusUsable)
	wantStatus(t, rep, "read", StatusInvalidCandidate)
	wantStatus(t, rep, "connect", StatusInvalidCandidate)
	wantStatus(t, rep, "sendmsg", StatusInvalidCandidate)
	wantStatus(t, rep, "open", StatusObserved)
	wantStatus(t, rep, "unlink", StatusObserved)
	if got := rep.Usable(); len(got) != 1 || got[0] != "epoll_wait" {
		t.Errorf("usable = %v, want [epoll_wait]", got)
	}
}

func TestReportDetails(t *testing.T) {
	rep := analyzeServer(t, "nginx")
	if rep.Server != "nginx" {
		t.Errorf("server = %q", rep.Server)
	}
	// Every finding must carry a provenance address and detail.
	for _, f := range rep.Findings {
		if f.Provenance == 0 {
			t.Errorf("finding %s has zero provenance", f.Syscall)
		}
		if f.Detail == "" {
			t.Errorf("finding %s has no detail", f.Syscall)
		}
		if f.Count <= 0 {
			t.Errorf("finding %s has count %d", f.Syscall, f.Count)
		}
	}
	// Status marks render distinctly.
	seen := map[string]bool{}
	for _, st := range []SyscallStatus{
		StatusNotObserved, StatusObserved, StatusUntriggered,
		StatusInvalidCandidate, StatusFalsePositive, StatusUsable,
	} {
		if st.String() == "status?" {
			t.Errorf("status %d unnamed", st)
		}
		if seen[st.Mark()] && st.Mark() != "" {
			t.Errorf("duplicate mark %q", st.Mark())
		}
		seen[st.Mark()] = true
	}
}

func TestAnalyzerDeterministic(t *testing.T) {
	a := analyzeServer(t, "lighttpd")
	b := analyzeServer(t, "lighttpd")
	for name, st := range a.Status {
		if b.Status[name] != st {
			t.Errorf("nondeterministic status for %s: %v vs %v", name, st, b.Status[name])
		}
	}
}
