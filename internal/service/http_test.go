package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"crashresist"
)

// startServer boots a service over httptest with real analyses.
func startServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = crashresist.NewMetricsRegistry()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// postJob submits a job over HTTP and decodes the accepted view.
func postJob(t *testing.T, ts *httptest.Server, body string) JobView {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e apiError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST /v1/jobs: status %d (%s)", resp.StatusCode, e.Error)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// getJSON fetches a URL and decodes into out, returning the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitDone polls the job API until the job is terminal.
func waitDone(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var v JobView
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobView{}
}

// stripStats removes every "stats" key from a JSON document, the same
// normalization the chaos goldens use: Stats is the one run-dependent
// part of a report.
func stripStats(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("unmarshal for normalization: %v", err)
	}
	var walk func(v any)
	walk = func(v any) {
		switch vv := v.(type) {
		case map[string]any:
			delete(vv, "stats")
			for _, child := range vv {
				walk(child)
			}
		case []any:
			for _, child := range vv {
				walk(child)
			}
		}
	}
	walk(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAPIEquivalence submits the same analysis through the job API at
// several worker counts and asserts each result is byte-identical
// (Stats stripped) to a direct library Run — the API adds transport, not
// semantics.
func TestAPIEquivalence(t *testing.T) {
	_, ts := startServer(t, Config{Budget: 8, MaxQueue: 64, Retain: 64})

	for _, tc := range []struct {
		pipeline, target string
	}{
		{"syscall", "nginx"},
		{"seh", "ie"},
	} {
		tc := tc
		t.Run(tc.pipeline+"/"+tc.target, func(t *testing.T) {
			direct, err := crashresist.Run(context.Background(), crashresist.Request{
				Pipeline: tc.pipeline, Target: tc.target, Scale: "small", Seed: 42,
			})
			if err != nil {
				t.Fatal(err)
			}
			directRaw, err := json.Marshal(direct)
			if err != nil {
				t.Fatal(err)
			}
			want := stripStats(t, directRaw)

			for _, workers := range []int{1, 4, 8} {
				body := fmt.Sprintf(`{"schema":"v1","tenant":"equiv","pipeline":%q,"target":%q,"scale":"small","seed":42,"workers":%d}`,
					tc.pipeline, tc.target, workers)
				v := postJob(t, ts, body)
				fin := waitDone(t, ts, v.ID)
				if fin.State != StateDone {
					t.Fatalf("workers=%d: state %s (%s)", workers, fin.State, fin.Error)
				}
				got := stripStats(t, fin.Result)
				if !bytes.Equal(got, want) {
					t.Errorf("workers=%d: API result differs from direct library run", workers)
				}
			}
		})
	}
}

// TestHTTPLifecycle covers the submit → list → get → events → metrics
// path against one real small-scale run.
func TestHTTPLifecycle(t *testing.T) {
	_, ts := startServer(t, Config{Budget: 4, MaxQueue: 16, Retain: 16})

	v := postJob(t, ts, `{"tenant":"acme","target":"nginx","seed":42}`)
	if v.Schema != Schema || v.Tenant != "acme" || v.ID == "" {
		t.Fatalf("bad accepted view: %+v", v)
	}
	fin := waitDone(t, ts, v.ID)
	if fin.State != StateDone {
		t.Fatalf("state %s (%s)", fin.State, fin.Error)
	}
	var res crashresist.Result
	if err := json.Unmarshal(fin.Result, &res); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if res.Schema != Schema || res.Pipeline != "syscall" || res.Syscall == nil {
		t.Fatalf("bad result envelope: schema=%q pipeline=%q", res.Schema, res.Pipeline)
	}

	var list jobList
	if code := getJSON(t, ts.URL+"/v1/jobs?tenant=acme", &list); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != v.ID {
		t.Fatalf("tenant listing wrong: %+v", list.Jobs)
	}
	if list.Jobs[0].Result != nil {
		t.Fatal("list response must omit result payloads")
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?tenant=nobody", &list); code != http.StatusOK || len(list.Jobs) != 0 {
		t.Fatalf("foreign tenant sees %d jobs", len(list.Jobs))
	}

	// SSE replay after completion: data frames then the done event.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var dataFrames int
	var sawDone bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: {") {
			dataFrames++
			var ev crashresist.StageEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad event frame %q: %v", line, err)
			}
			if ev.Pipeline != "syscall" {
				t.Fatalf("event pipeline %q", ev.Pipeline)
			}
		}
		if line == "event: done" {
			sawDone = true
		}
	}
	if dataFrames == 0 || !sawDone {
		t.Fatalf("SSE stream: %d data frames, done=%v", dataFrames, sawDone)
	}

	// Metrics scrape carries the job families with the tenant label.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	scrape := buf.String()
	for _, want := range []string{
		`crashresist_jobs_submitted_total{tenant="acme"} 1`,
		`crashresist_jobs_completed_total{tenant="acme"} 1`,
		`crashresist_job_run_seconds_count{tenant="acme"} 1`,
		"crashresist_jobs_queued 0",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// promSample is one sample line of the Prometheus text format: a metric
// name, optional label pairs whose values escape only backslash, double
// quote and line feed, and a value.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
	`(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*")*\})? \S+$`)

// TestMetricsEscapeTenantLabels submits jobs whose tenants hold a tab, a
// no-break space, a double quote, a backslash and a line feed, and checks
// that every sample line of the scrape still parses.
func TestMetricsEscapeTenantLabels(t *testing.T) {
	_, ts := startServer(t, Config{Budget: 2, MaxQueue: 8, Retain: 8})
	for _, tenant := range []string{`a\tb\u00a0c`, `q\"s\\l\nn`} {
		v := postJob(t, ts, `{"tenant":"`+tenant+`","target":"nginx","seed":42}`)
		if fin := waitDone(t, ts, v.ID); fin.State != StateDone {
			t.Fatalf("tenant %q: state %s (%s)", v.Tenant, fin.State, fin.Error)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	scrape := buf.String()
	for _, line := range strings.Split(strings.TrimSuffix(scrape, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && !promSample.MatchString(line) {
			t.Errorf("sample line breaks the text format: %q", line)
		}
	}
	for _, want := range []string{
		"crashresist_jobs_submitted_total{tenant=\"a\tb\u00a0c\"} 1\n",
		`crashresist_jobs_submitted_total{tenant="q\"s\\l\nn"} 1` + "\n",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestHTTPErrors pins the error-path status codes: malformed JSON and
// unknown fields are 400, unknown jobs 404, a full queue 429 with a
// Retry-After hint.
func TestHTTPErrors(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, ts := startServer(t, Config{Budget: 1, MaxQueue: 1, Runner: blockingRunner(nil, release)})

	for _, body := range []string{
		`{"target":`,                            // malformed
		`{"target":"nginx","bogus_field":true}`, // unknown field
		`{"target":"nginx","cache_dir":"/tmp/evil"}`,
		`{"schema":"v2","target":"nginx"}`,
		`{"target":"toaster"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/j99999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}

	// Occupy the runner, fill the queue, then overflow it.
	postJob(t, ts, `{"target":"nginx"}`)
	waitRunning(t, s)
	postJob(t, ts, `{"target":"nginx"}`)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"target":"nginx"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.RetryAfterSeconds == 0 {
		t.Errorf("429 body lacks retry_after_seconds: %+v err %v", e, err)
	}
}

// waitRunning blocks until one job is running (not merely queued).
func waitRunning(t *testing.T, s *Service) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, running := s.Counts(); running > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no job ever started running")
}
