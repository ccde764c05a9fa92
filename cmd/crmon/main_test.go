package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"crashresist"
)

// TestServeAndAnalyze drives the monitor end to end: bind an ephemeral
// port, run one analysis, then check every endpoint while the server keeps
// serving, and finally interrupt it via context cancellation.
func TestServeAndAnalyze(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-target", "nginx", "-runs", "1"},
			func(addr string) { addrCh <- addr })
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the listener")
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// The analysis completes asynchronously; poll /metrics until the run
	// lands in the registry.
	deadline := time.Now().Add(30 * time.Second)
	var metricsBody string
	for {
		metricsBody = get("/metrics")
		if strings.Contains(metricsBody, "crashresist_runs_total") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never showed a completed run:\n%s", metricsBody)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !strings.Contains(metricsBody, `crashresist_runs_total{pipeline="syscall",target="nginx"} 1`) {
		t.Errorf("/metrics missing the nginx run:\n%s", metricsBody)
	}
	if !strings.Contains(metricsBody, "crashresist_stage_latency_ticks") {
		t.Errorf("/metrics missing latency summary:\n%s", metricsBody)
	}

	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(get("/trace.json")), &trace); err != nil {
		t.Fatalf("/trace.json not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Error("/trace.json carries no events after a completed run")
	}

	if body := get("/healthz"); body != "ok\n" {
		t.Errorf("/healthz = %q", body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("run returned %v, want nil or context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after cancellation")
	}
}

// TestCacheCountersExposed runs two analyses against one cache dir and
// checks the cache counter families surface on /metrics: the first run
// misses and populates, the second hits, and both flow through the
// per-run collector into the Prometheus exposition.
func TestCacheCountersExposed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-target", "nginx", "-runs", "2",
			"-cache-dir", t.TempDir()},
			func(addr string) { addrCh <- addr })
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the listener")
	}

	deadline := time.Now().Add(30 * time.Second)
	var body string
	for {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		body = string(raw)
		if strings.Contains(body, `crashresist_runs_total{pipeline="syscall",target="nginx"} 2`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never showed both runs:\n%s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}

	for _, family := range []string{
		"crashresist_cache_hits_total",
		"crashresist_cache_misses_total",
		"crashresist_cache_bytes_total",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %s:\n%s", family, body)
		}
	}
	if strings.Contains(body, "crashresist_cache_bad_entries_total") &&
		!strings.Contains(body, `crashresist_cache_bad_entries_total{pipeline="syscall",target="nginx"} 0`) {
		t.Errorf("/metrics reports corrupted cache entries on a healthy dir:\n%s", body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("run returned %v, want nil or context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after cancellation")
	}
}

// TestBadCacheDirDegrades proves an unusable -cache-dir is a warning, not
// a failure: the monitor still completes its run uncached.
func TestBadCacheDirDegrades(t *testing.T) {
	file := t.TempDir() + "/occupied"
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-target", "nginx", "-runs", "1",
			"-cache-dir", file + "/cache"},
			func(addr string) { addrCh <- addr })
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the listener")
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(raw), `crashresist_runs_total{pipeline="syscall",target="nginx"} 1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run with broken cache dir never completed:\n%s", raw)
		}
		time.Sleep(50 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("run with broken cache dir returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after cancellation")
	}
}

// TestBadParams checks flag validation without binding a port.
func TestBadParams(t *testing.T) {
	cases := [][]string{
		{"-target", "nginx", "-pipeline", "seh"}, // server target, browser pipeline
		{"-target", "ie", "-pipeline", "bogus"},
		{"-target", "nosuch"},
	}
	for _, args := range cases {
		err := run(context.Background(), args, nil)
		if err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
			continue
		}
		if strings.Contains(fmt.Sprint(args), "nosuch") {
			if !errors.Is(err, crashresist.ErrUnknownServer) {
				t.Errorf("run(%v) = %v, want ErrUnknownServer", args, err)
			}
		} else if !errors.Is(err, crashresist.ErrBadParams) {
			t.Errorf("run(%v) = %v, want ErrBadParams", args, err)
		}
	}
}

// TestServeJobAPI drives -serve end to end: submit a job over HTTP, poll
// it to completion, check the result envelope and the job metric
// families, then interrupt the server.
func TestServeJobAPI(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-serve", "-cache-dir", t.TempDir()},
			func(addr string) { addrCh <- addr })
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the listener")
	}
	base := "http://" + addr

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"schema":"v1","tenant":"smoke","target":"nginx","seed":42}`))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		ID     string          `json:"id"`
		State  string          `json:"state"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || view.ID == "" {
		t.Fatalf("submit: status %d view %+v err %v", resp.StatusCode, view, err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for view.State != "done" {
		if view.State == "failed" || view.State == "canceled" {
			t.Fatalf("job ended %s: %s", view.State, view.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", view.State)
		}
		time.Sleep(20 * time.Millisecond)
		r, err := http.Get(base + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&view)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	var result struct {
		Schema   string `json:"schema"`
		Pipeline string `json:"pipeline"`
	}
	if err := json.Unmarshal(view.Result, &result); err != nil {
		t.Fatalf("result: %v", err)
	}
	if result.Schema != "v1" || result.Pipeline != "syscall" {
		t.Fatalf("result envelope: %+v", result)
	}

	r, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`crashresist_jobs_completed_total{tenant="smoke"} 1`,
		`crashresist_runs_total{pipeline="syscall",target="nginx"} 1`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("run returned %v, want nil or context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after cancellation")
	}
}
