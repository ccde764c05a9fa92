package crashresist

// Sentinel-error contract: every typed sentinel must survive arbitrary %w
// wrapping depth (errors.Is through the chain), the sentinels must stay
// distinct from each other, and reports that carry Degraded records — the
// JSON-facing trace of ErrDegraded conditions — must round-trip through
// encoding/json without losing them.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

var sentinels = []struct {
	name string
	err  error
}{
	{"ErrUnknownServer", ErrUnknownServer},
	{"ErrUnknownTable", ErrUnknownTable},
	{"ErrBadParams", ErrBadParams},
	{"ErrDegraded", ErrDegraded},
	{"ErrInjectedFault", ErrInjectedFault},
}

func TestSentinelsSurviveWrapping(t *testing.T) {
	for _, s := range sentinels {
		wrapped := fmt.Errorf("cli: %w", fmt.Errorf("pipeline %q: %w", "x", fmt.Errorf("stage: %w", s.err)))
		if !errors.Is(wrapped, s.err) {
			t.Errorf("%s lost through three layers of %%w wrapping: %v", s.name, wrapped)
		}
		for _, other := range sentinels {
			if other.err != s.err && errors.Is(wrapped, other.err) {
				t.Errorf("wrapped %s also matches %s", s.name, other.name)
			}
		}
	}
}

func TestSentinelErrorsAreOneLine(t *testing.T) {
	for _, s := range sentinels {
		if strings.ContainsRune(s.err.Error(), '\n') {
			t.Errorf("%s message spans lines: %q", s.name, s.err.Error())
		}
	}
}

func TestUnknownServerWrapsSentinel(t *testing.T) {
	_, err := Server("no-such-server")
	if err == nil {
		t.Fatal("Server accepted an unknown name")
	}
	if !errors.Is(err, ErrUnknownServer) {
		t.Errorf("error %v does not wrap ErrUnknownServer", err)
	}
	if !strings.Contains(err.Error(), "no-such-server") {
		t.Errorf("error %v does not name the offending server", err)
	}
}

// TestDegradedReportJSONRoundTrip runs a chaos-seeded analysis until a
// report carries Degraded records, then checks the full report — records
// included — survives marshal → unmarshal with nothing lost. The Err field
// is the injected fault's text, so the ErrInjectedFault provenance stays
// legible after transport.
func TestDegradedReportJSONRoundTrip(t *testing.T) {
	servers, err := Servers()
	if err != nil {
		t.Fatal(err)
	}
	var rep *SyscallReport
	for seed := int64(1); seed <= 16 && rep == nil; seed++ {
		for _, srv := range servers {
			res, err := Run(context.Background(), Request{Server: srv, Seed: 42, ChaosSeed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", srv.Name, seed, err)
			}
			if len(res.Syscall.Degraded) > 0 {
				rep = res.Syscall
				break
			}
		}
	}
	if rep == nil {
		t.Fatal("no seed in [1,16] degraded any job at the default retry budget")
	}

	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back SyscallReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(back.Degraded, rep.Degraded) {
		t.Errorf("degraded records changed across JSON round-trip:\n got %+v\nwant %+v", back.Degraded, rep.Degraded)
	}
	if back.Server != rep.Server || !reflect.DeepEqual(back.Status, rep.Status) ||
		!reflect.DeepEqual(back.Findings, rep.Findings) {
		t.Error("report body changed across JSON round-trip")
	}
	for _, d := range back.Degraded {
		if d.Err == "" {
			t.Errorf("record %+v lost its error text", d)
		}
	}
}

// TestDegradedRecordFields pins the wire names of a Degraded record so the
// JSON surface can't drift silently.
func TestDegradedRecordFields(t *testing.T) {
	raw, err := json.Marshal(Degraded{Stage: "validate", Key: "read/1", Job: 3, Attempts: 2, Err: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"stage":"validate","key":"read/1","job":3,"attempts":2,"error":"boom"}`
	if string(raw) != want {
		t.Errorf("wire form = %s, want %s", raw, want)
	}
}
