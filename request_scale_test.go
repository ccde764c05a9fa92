package crashresist_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"crashresist"
)

// TestValidateScale table-drives Request.Validate over the scale wire
// field and the generated-target references it gates. The scale knob is
// part of the schema-v1 job surface, so unknown values must fail with
// ErrBadParams (a 400, not a 500, at the service layer) and every
// accepted value must round-trip. Every rejected request must fail Run
// with the same sentinel, attached targets included.
func TestValidateScale(t *testing.T) {
	nginx, err := crashresist.Server("nginx")
	if err != nil {
		t.Fatal(err)
	}
	params, err := crashresist.BrowserParamsForScale(crashresist.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	ie, err := crashresist.IE(params)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		req     crashresist.Request
		wantErr error // nil means the request must validate
	}{
		{"empty scale defaults small", crashresist.Request{Target: "lighttpd"}, nil},
		{"small", crashresist.Request{Scale: crashresist.ScaleSmall, Target: "lighttpd"}, nil},
		{"paper", crashresist.Request{Scale: crashresist.ScalePaper, Target: "ie", Pipeline: crashresist.PipelineSEH}, nil},
		{"large", crashresist.Request{Scale: crashresist.ScaleLarge, Target: "ie", Pipeline: crashresist.PipelineSEH}, nil},
		{"mega", crashresist.Request{Scale: crashresist.ScaleMega, Target: "ie", Pipeline: crashresist.PipelineSEH}, nil},
		{"unknown scale", crashresist.Request{Scale: "jumbo", Target: "lighttpd"}, crashresist.ErrBadParams},
		{"scale is case-sensitive", crashresist.Request{Scale: "Large", Target: "lighttpd"}, crashresist.ErrBadParams},

		{"gen fleet default scale", crashresist.Request{Target: "gen"}, nil},
		{"gen fleet mega", crashresist.Request{Scale: crashresist.ScaleMega, Target: "gen"}, nil},
		{"gen fleet wrong pipeline", crashresist.Request{Target: "gen", Pipeline: crashresist.PipelineSEH}, crashresist.ErrBadParams},

		{"gen-0 at small", crashresist.Request{Target: "gen-0"}, nil},
		{"gen-3 at small (fleet of 4)", crashresist.Request{Target: "gen-3"}, nil},
		{"gen-4 out of range at small", crashresist.Request{Target: "gen-4"}, crashresist.ErrBadParams},
		{"gen-59 at large", crashresist.Request{Scale: crashresist.ScaleLarge, Target: "gen-59"}, nil},
		{"gen-60 out of range at large", crashresist.Request{Scale: crashresist.ScaleLarge, Target: "gen-60"}, crashresist.ErrBadParams},
		{"gen-599 at mega", crashresist.Request{Scale: crashresist.ScaleMega, Target: "gen-599"}, nil},
		// "gen-01" is not canonical (GenServerName(1) == "gen-1"), so it
		// falls through reference parsing to the unknown-server path.
		{"non-canonical gen ref", crashresist.Request{Target: "gen-01"}, crashresist.ErrUnknownServer},

		{"no target", crashresist.Request{}, crashresist.ErrBadParams},
		{"unknown pipeline", crashresist.Request{Target: "ie", Pipeline: "bogus"}, crashresist.ErrBadParams},
		{"server with seh", crashresist.Request{Target: "nginx", Pipeline: crashresist.PipelineSEH}, crashresist.ErrBadParams},
		{"all with api", crashresist.Request{Target: "all", Pipeline: crashresist.PipelineAPI}, crashresist.ErrBadParams},
		{"browser with syscall", crashresist.Request{Target: "ie", Pipeline: crashresist.PipelineSyscall}, crashresist.ErrBadParams},
		{"attached servers with seh", crashresist.Request{Servers: []*crashresist.ServerTarget{nginx}, Pipeline: crashresist.PipelineSEH}, crashresist.ErrBadParams},
		{"attached server with api", crashresist.Request{Server: nginx, Pipeline: crashresist.PipelineAPI}, crashresist.ErrBadParams},
		{"attached browser with syscall", crashresist.Request{Browser: ie, Pipeline: crashresist.PipelineSyscall}, crashresist.ErrBadParams},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Validate()
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Validate() = %v, want %v", err, tc.wantErr)
			}
			if _, err := crashresist.Run(context.Background(), tc.req); !errors.Is(err, tc.wantErr) {
				t.Fatalf("Run() = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestScaleWireRoundTrip pins that the scale field survives the schema-v1
// JSON wire format verbatim, including the new large/mega values.
func TestScaleWireRoundTrip(t *testing.T) {
	for _, scale := range []string{
		crashresist.ScaleSmall, crashresist.ScalePaper,
		crashresist.ScaleLarge, crashresist.ScaleMega,
	} {
		req := crashresist.Request{
			Pipeline: crashresist.PipelineSyscall,
			Target:   "gen-0",
			Scale:    scale,
			Seed:     42,
		}
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var got crashresist.Request
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if got.Scale != scale {
			t.Errorf("scale %q round-tripped to %q", scale, got.Scale)
		}
	}

	// A mega request's wire form is exactly the schema-v1 field set.
	req := crashresist.Request{Pipeline: "syscall", Target: "gen-7", Scale: "mega", Seed: 1}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"pipeline":"syscall","target":"gen-7","scale":"mega","seed":1}`
	if string(data) != want {
		t.Errorf("mega request wire form\n got  %s\n want %s", data, want)
	}
}

// TestGenServerCount pins the fleet size at each scale and the error on
// unknown scales.
func TestGenServerCount(t *testing.T) {
	cases := []struct {
		scale string
		n     int
		ok    bool
	}{
		{"", 4, true},
		{crashresist.ScaleSmall, 4, true},
		{crashresist.ScalePaper, 6, true},
		{crashresist.ScaleLarge, 60, true},
		{crashresist.ScaleMega, 600, true},
		{"jumbo", 0, false},
	}
	for _, tc := range cases {
		n, err := crashresist.GenServerCount(tc.scale)
		if tc.ok && (err != nil || n != tc.n) {
			t.Errorf("GenServerCount(%q) = (%d, %v), want (%d, nil)", tc.scale, n, err, tc.n)
		}
		if !tc.ok && !errors.Is(err, crashresist.ErrBadParams) {
			t.Errorf("GenServerCount(%q) err = %v, want ErrBadParams", tc.scale, err)
		}
	}
}

// TestRunRejectsUnknownScale pins that Run itself (not just Validate)
// refuses an unknown scale on every dispatch path, including plain
// server targets that never consult the scale otherwise.
func TestRunRejectsUnknownScale(t *testing.T) {
	for _, target := range []string{"lighttpd", "gen", "gen-0", "ie", "all"} {
		_, err := crashresist.Run(context.Background(), crashresist.Request{Target: target, Scale: "jumbo", Seed: 42})
		if !errors.Is(err, crashresist.ErrBadParams) {
			t.Errorf("Run(target=%q, scale=jumbo) err = %v, want ErrBadParams", target, err)
		}
	}
}

// TestRunGenServerByRef runs one generated server end to end through the
// Request surface and checks the result is the same report a run on the
// attached pre-built server produces.
func TestRunGenServerByRef(t *testing.T) {
	res, err := crashresist.Run(context.Background(), crashresist.Request{Target: "gen-1", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Syscall == nil {
		t.Fatal("no syscall report for gen-1")
	}
	srv, err := crashresist.GenServer(crashresist.DefaultGenSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	attached, err := crashresist.Run(context.Background(), crashresist.Request{Server: srv, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	direct := attached.Syscall
	viaRun, err := json.Marshal(stripStats(t, res.Syscall))
	if err != nil {
		t.Fatal(err)
	}
	viaDirect, err := json.Marshal(stripStats(t, direct))
	if err != nil {
		t.Fatal(err)
	}
	if string(viaRun) != string(viaDirect) {
		t.Error("Run(gen-1) report differs from the attached-server run")
	}
}

// TestRunGenFleet runs the whole generated fleet at the default (small)
// scale through the Request surface.
func TestRunGenFleet(t *testing.T) {
	res, err := crashresist.Run(context.Background(), crashresist.Request{Target: "gen", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Servers) != 4 {
		t.Fatalf("gen fleet at small scale returned %d reports, want 4", len(res.Servers))
	}
	for i, rep := range res.Servers {
		if want := "gen-" + string(rune('0'+i)); rep.Server != want {
			t.Errorf("report %d is for %q, want %q (input order)", i, rep.Server, want)
		}
	}
}

// stripStats drops the run-dependent stats key so reports from different
// runs can be compared byte-for-byte.
func stripStats(t *testing.T, v any) map[string]json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "stats")
	return m
}
