package discover

import (
	"context"
	"testing"

	"crashresist/internal/targets"
)

func TestAPIFunnelIE(t *testing.T) {
	params := targets.SmallBrowserParams()
	br, err := targets.IE(params)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeAPIs(context.Background(), Config{Seed: 5151}, br)
	if err != nil {
		t.Fatal(err)
	}

	// Funnel head: black-box rediscovery of the corpus proportions.
	if rep.Total != params.API.Total {
		t.Errorf("Total = %d, want %d", rep.Total, params.API.Total)
	}
	if rep.WithPointer != params.API.WithPointer {
		t.Errorf("WithPointer = %d, want %d", rep.WithPointer, params.API.WithPointer)
	}
	if rep.CrashResistant != params.API.CrashResistant {
		t.Errorf("CrashResistant = %d, want %d", rep.CrashResistant, params.API.CrashResistant)
	}

	// Funnel middle: exactly the planned on-path and JS-context counts.
	if rep.OnPath != params.OnPathAPIs {
		t.Errorf("OnPath = %d (%v), want %d", rep.OnPath, rep.OnPathAPIs, params.OnPathAPIs)
	}
	if rep.JSContext != params.JSContextAPIs {
		t.Errorf("JSContext = %d (%v), want %d", rep.JSContext, rep.JSContextAPIs, params.JSContextAPIs)
	}

	// Funnel tail: zero controllable, with the right mix of exclusions.
	if rep.Controllable != 0 {
		t.Errorf("Controllable = %d, want 0 (paper's negative result)", rep.Controllable)
	}
	reasons := make(map[ExclusionReason]int)
	for _, cls := range rep.Classifications {
		reasons[cls.Reason]++
	}
	wantShapes := map[ExclusionReason]int{}
	for _, js := range br.JSAPIs {
		switch js.Shape {
		case targets.ShapeStack:
			wantShapes[ReasonStackTransient]++
		case targets.ShapeDerefOutside:
			wantShapes[ReasonDerefOutside]++
		default:
			wantShapes[ReasonVolatile]++
		}
	}
	for reason, want := range wantShapes {
		if reasons[reason] != want {
			t.Errorf("reason %v count = %d, want %d (all: %v)", reason, reasons[reason], want, reasons)
		}
	}
	for _, cls := range rep.Classifications {
		if cls.Detail == "" {
			t.Errorf("%s: empty detail", cls.API)
		}
	}
}

func TestExclusionReasonStrings(t *testing.T) {
	for r := ReasonStackTransient; r <= ReasonUntriggered; r++ {
		if r.String() == "reason?" {
			t.Errorf("reason %d unnamed", r)
		}
	}
}
