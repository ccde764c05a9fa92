package crashresist

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateObsDigest = flag.Bool("update", false, "rewrite testdata/observability_digest.txt from the current observers")

// obsDigestCase is one pinned request of the observability digest.
type obsDigestCase struct {
	name string
	req  Request
}

// obsDigestCases lists the pinned requests: clean runs of every pipeline,
// chaos seeds that put retries, backoff and degradations on each stage
// (the benign phases included), and cold-then-warm pairs sharing cacheDir.
func obsDigestCases(workers int, cacheDir string) []obsDigestCase {
	req := func(target, pipeline string, chaos int64) Request {
		return Request{
			Target: target, Pipeline: pipeline, Scale: ScaleSmall, Seed: 42, Workers: workers,
			ChaosSeed: chaos, IncludeProfile: true, IncludeDetect: true,
		}
	}
	cached := func(target, pipeline string) Request {
		r := req(target, pipeline, 0)
		r.CacheDir = cacheDir
		return r
	}
	return []obsDigestCase{
		{"nginx", req("nginx", "", 0)},
		{"memcached", req("memcached", "", 0)},
		{"all/chaos-1", req("all", "", 1)},
		{"ie-api", req("ie", PipelineAPI, 0)},
		{"ie-seh", req("ie", PipelineSEH, 0)},
		{"firefox-seh", req("firefox", PipelineSEH, 0)},
		{"nginx/chaos-1", req("nginx", "", 1)},
		{"nginx/chaos-6", req("nginx", "", 6)},
		{"ie-api/chaos-3", req("ie", PipelineAPI, 3)},
		{"ie-api/chaos-14", req("ie", PipelineAPI, 14)},
		{"ie-seh/chaos-7", req("ie", PipelineSEH, 7)},
		{"ie-seh/chaos-30", req("ie", PipelineSEH, 30)},
		{"nginx/cold", cached("nginx", "")},
		{"nginx/warm", cached("nginx", "")},
		{"ie-api/cold", cached("ie", PipelineAPI)},
		{"ie-api/warm", cached("ie", PipelineAPI)},
		{"ie-seh/cold", cached("ie", PipelineSEH)},
		{"ie-seh/warm", cached("ie", PipelineSEH)},
	}
}

// obsDump renders everything the observers derived from one run: each
// RunStats stripped of its scheduling-dependent fields (as in
// TestStatsDeterministicCounters), the folded profile and the detect JSON.
func obsDump(t *testing.T, res *Result) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("-- stats\n")
	for _, st := range res.RunStats() {
		cp := *st
		cp.WallNS, cp.Workers = 0, 0
		cp.Spans, cp.SpansDropped = nil, 0
		cp.Stages = append([]StageStats(nil), st.Stages...)
		for i := range cp.Stages {
			cp.Stages[i].WallNS = 0
			cp.Stages[i].ShardTasks = nil
		}
		raw, err := json.Marshal(&cp)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(raw)
		b.WriteByte('\n')
	}
	b.WriteString("-- profile\n")
	if err := res.Profile.WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("-- detect\n")
	raw, err := json.Marshal(res.Detect)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(raw)
	b.WriteByte('\n')
	return b.Bytes()
}

// TestObservabilityDigestPinned pins what the collector, profiler and
// detector report for a fixed set of requests, at 1 and 4 workers. The
// invariance suites compare two runs of the same code, so an observer that
// drops or double-counts a unit's cost passes them; this digest does not.
// On intentional observer changes run
//
//	go test . -run TestObservabilityDigestPinned -update
//
// and review the changed lines alongside the change.
func TestObservabilityDigestPinned(t *testing.T) {
	path := filepath.Join("testdata", "observability_digest.txt")
	var want string
	if !*updateObsDigest {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read pinned digest (use -update to create): %v", err)
		}
		want = string(raw)
	}
	for _, workers := range []int{1, 4} {
		var lines, dump strings.Builder
		for _, tc := range obsDigestCases(workers, t.TempDir()) {
			res, err := Run(context.Background(), tc.req)
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", tc.name, workers, err)
			}
			d := obsDump(t, res)
			fmt.Fprintf(&lines, "%s %x\n", tc.name, sha256.Sum256(d))
			fmt.Fprintf(&dump, "== %s\n%s", tc.name, d)
		}
		got := lines.String()
		if *updateObsDigest && want == "" {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", path)
			want = got
		}
		if got != want {
			out := filepath.Join(t.TempDir(), fmt.Sprintf("observability_dump_w%d.txt", workers))
			if err := os.WriteFile(out, []byte(dump.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Errorf("observer output drifted from %s at workers=%d:\ngot:\n%swant:\n%sfull dump: %s",
				path, workers, got, want, out)
		}
	}
}
