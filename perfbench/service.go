package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"crashresist"
	"crashresist/internal/cas"
	"crashresist/internal/metrics"
	"crashresist/internal/service"
)

// Service workload shape. A batch is a seeded draw over a fixed mix of
// fast targets; the counts per kind, the profile/detect shares and the
// number of distinct (target, seed) pairs are the same for every seed, so
// seeds change which inputs run, not how much work a batch is.
const (
	batchJobs     = 216 // ≥ 110, so at least ten jobs lie beyond p90
	serviceBudget = 2   // worker tokens, one per vCPU
	tenantWindow  = 4   // jobs each closed-loop client keeps outstanding
	seedSetSize   = 3   // distinct analysis seeds per batch
	genServers    = 3   // generated servers gen-0 .. gen-2 in every batch
	pollInterval  = 2 * time.Millisecond
)

// jobKind is one entry of the service mix.
type jobKind struct {
	name     string
	target   string // "gen" draws a gen-<i> index
	pipeline string
	scale    string
}

// serviceMix lists the job kinds, each an equal share of the batch.
// Cherokee stays out: its multi-second validation is the table1 workload.
var serviceMix = []jobKind{
	{"nginx", "nginx", crashresist.PipelineSyscall, ""},
	{"lighttpd", "lighttpd", crashresist.PipelineSyscall, ""},
	{"memcached", "memcached", crashresist.PipelineSyscall, ""},
	{"postgresql", "postgresql", crashresist.PipelineSyscall, ""},
	{"gen-large", "gen", crashresist.PipelineSyscall, crashresist.ScaleLarge},
	{"ie-small-seh", "ie", crashresist.PipelineSEH, crashresist.ScaleSmall},
	{"firefox-small-seh", "firefox", crashresist.PipelineSEH, crashresist.ScaleSmall},
	{"ie-small-api", "ie", crashresist.PipelineAPI, crashresist.ScaleSmall},
}

var tenants = []string{"tenant-a", "tenant-b"}

// makeBatch draws the job batch for a seed. Within each kind, jobs cycle
// through a seed-derived set of analysis seeds, so first occurrences miss
// the shared CAS and repeats hit. The generated servers are fixed: each
// has its own syscall profile and cost, so drawing them would change how
// much work a batch is. A quarter of the jobs ask for a profile and a
// quarter, drawn apart, for detection. The batch runs in rounds of one
// job per kind, each round in a seeded order, and tenants alternate:
// a free shuffle would let one seed bunch the slow kinds together and
// another spread them, moving the latency tail by seed.
func makeBatch(seed int64, n int) []service.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, seedSetSize)
	for i := range seeds {
		seeds[i] = 1 + rng.Int63n(1<<20)
	}

	jobs := make([]service.JobSpec, 0, n)
	for i := 0; i < n; i++ {
		k := serviceMix[i%len(serviceMix)]
		round := i / len(serviceMix)
		req := crashresist.Request{
			Pipeline: k.pipeline,
			Target:   k.target,
			Scale:    k.scale,
			Seed:     seeds[round%seedSetSize],
		}
		if k.target == "gen" {
			req.Target = fmt.Sprintf("gen-%d", (round/seedSetSize)%genServers)
		}
		jobs = append(jobs, service.JobSpec{Schema: service.Schema, Request: req})
	}
	for _, i := range rng.Perm(n)[:n/4] {
		jobs[i].IncludeProfile = true
	}
	for _, i := range rng.Perm(n)[:n/4] {
		jobs[i].IncludeDetect = true
	}
	for r := 0; r < n; r += len(serviceMix) {
		round := jobs[r:min(r+len(serviceMix), n)]
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	}
	for i := range jobs {
		jobs[i].Tenant = tenants[i%len(tenants)]
	}
	return jobs
}

// serviceEnv is one started service: a fresh CAS, a registry, the job API
// on a loopback listener.
type serviceEnv struct {
	dir   string
	cache *cas.Cache
	svc   *service.Service
	srv   *http.Server
	base  string
	done  chan struct{} // closed when Serve returns
}

// jobRecord is one submitted job as a client saw it.
type jobRecord struct {
	spec   int // index into the batch
	status int // POST status code
	view   service.JobView
}

// serviceWorkload runs the seeded batch against a fresh service per
// operation.
type serviceWorkload struct {
	cfg     config
	batch   []service.JobSpec
	seq     int
	refs    map[string][]byte // normalized direct-run results by request
	lastMix *realizedMix
	// entrySizes are the CAS entry sizes the last traced batch stored.
	entrySizes []int64
}

// realizedMix is the realized mix of the last checked batch.
type realizedMix struct {
	Jobs          int            `json:"jobs"`
	PerKind       map[string]int `json:"per_kind"`
	ProfileShare  float64        `json:"profile_share"`
	DetectShare   float64        `json:"detect_share"`
	DistinctPairs int            `json:"distinct_target_seed_pairs"`
	CASHits       uint64         `json:"cas_hits"`
	CASMisses     uint64         `json:"cas_misses"`
	CASHitShare   float64        `json:"cas_hit_share"`
	CASBytes      uint64         `json:"cas_bytes"`
	Rejected      int            `json:"rejected"`
}

func newServiceWorkload(cfg config) *serviceWorkload {
	return &serviceWorkload{cfg: cfg, batch: makeBatch(cfg.seed, batchJobs), refs: make(map[string][]byte)}
}

func (w *serviceWorkload) setupReps() int { return 11 }

func (w *serviceWorkload) mix() any {
	if w.lastMix == nil {
		return nil
	}
	return w.lastMix
}

// build opens a fresh CAS and starts the service on loopback, as
// `crmon -serve` does. Set-up is the service start: opening the CAS,
// whose probe file costs 0.3–3.7 ms of kernel filesystem time depending
// on the host's I/O state, is left out so it cannot swamp the rest.
func (w *serviceWorkload) build() (any, time.Duration, error) {
	w.seq++
	dir := filepath.Join(w.cfg.scratchDir(), fmt.Sprintf("cas-%d", w.seq))
	cache, err := cas.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	t0 := cpuTime()
	svc := service.New(service.Config{
		Budget:   serviceBudget,
		Cache:    cache,
		Registry: metrics.NewRegistry(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, 0, err
	}
	env := &serviceEnv{
		dir:   dir,
		cache: cache,
		svc:   svc,
		srv:   &http.Server{Handler: svc.Handler()},
		base:  "http://" + ln.Addr().String(),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(env.done)
		env.srv.Serve(ln)
	}()
	return env, cpuTime() - t0, nil
}

func (w *serviceWorkload) release(e any) {
	env := e.(*serviceEnv)
	env.srv.Close()
	<-env.done
	env.svc.Close()
	os.RemoveAll(env.dir)
}

// run drives the batch through two closed-loop tenant clients, each on one
// connection, and returns every job's final view.
func (w *serviceWorkload) run(ctx context.Context, e any, tr *tracer) (any, error) {
	env := e.(*serviceEnv)
	records := make([]jobRecord, len(w.batch))
	var wg sync.WaitGroup
	errs := make([]error, len(tenants))
	for ti, tenant := range tenants {
		var mine []int
		for i, spec := range w.batch {
			if spec.Tenant == tenant {
				mine = append(mine, i)
			}
		}
		wg.Add(1)
		go func(ti int, mine []int) {
			defer wg.Done()
			errs[ti] = runClient(ctx, env.base, w.batch, mine, records, tr)
		}(ti, mine)
	}
	wg.Wait()
	return records, errors.Join(errs...)
}

// runClient is one tenant's closed loop: keep tenantWindow jobs
// outstanding and replace each as soon as it finishes. A poll lists the
// tenant's queued and running jobs, in that order; an outstanding job in
// neither list has reached a terminal state (a job never returns to the
// queue), and only then is its full view fetched.
func runClient(ctx context.Context, base string, batch []service.JobSpec, mine []int, records []jobRecord, tr *tracer) error {
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	tenant := url.QueryEscape(batch[mine[0]].Tenant)

	outstanding := make(map[string]int) // job ID → index into records
	next := 0
	for next < len(mine) || len(outstanding) > 0 {
		for len(outstanding) < tenantWindow && next < len(mine) {
			i := mine[next]
			next++
			t0 := time.Now()
			rec, err := submit(ctx, client, base, batch[i])
			if err != nil {
				return err
			}
			tr.call("submit", t0)
			rec.spec = i
			records[i] = rec
			if rec.status == http.StatusAccepted {
				outstanding[rec.view.ID] = i
			}
		}
		if len(outstanding) == 0 {
			continue
		}
		active := make(map[string]bool)
		for _, state := range []service.State{service.StateQueued, service.StateRunning} {
			var list struct{ Jobs []service.JobView }
			t0 := time.Now()
			if err := getJSON(ctx, client, base+"/v1/jobs?tenant="+tenant+"&state="+string(state), &list); err != nil {
				return err
			}
			tr.call("poll", t0)
			for _, v := range list.Jobs {
				active[v.ID] = true
			}
		}
		finished := 0
		for id, i := range outstanding {
			if active[id] {
				continue
			}
			t0 := time.Now()
			if err := getJSON(ctx, client, base+"/v1/jobs/"+id, &records[i].view); err != nil {
				return err
			}
			tr.call("fetch", t0)
			delete(outstanding, id)
			finished++
		}
		if finished == 0 {
			time.Sleep(pollInterval)
		}
	}
	return nil
}

func submit(ctx context.Context, client *http.Client, base string, spec service.JobSpec) (jobRecord, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobRecord{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return jobRecord{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return jobRecord{}, err
	}
	defer resp.Body.Close()
	rec := jobRecord{status: resp.StatusCode}
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&rec.view); err != nil {
			return jobRecord{}, fmt.Errorf("decode submit response: %w", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return rec, nil
}

func getJSON(ctx context.Context, client *http.Client, target string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", target, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// check verifies every job: accepted, done, and — stats stripped — equal
// to the same request run directly without a cache. A 429 or a failed job
// is not ok.
func (w *serviceWorkload) check(ctx context.Context, e, out any) verdict {
	env := e.(*serviceEnv)
	records := out.([]jobRecord)
	v := verdict{attempted: len(records)}
	m := &realizedMix{Jobs: len(records), PerKind: make(map[string]int)}
	distinct := make(map[string]bool)
	for _, rec := range records {
		spec := w.batch[rec.spec]
		m.PerKind[kindOf(spec.Request)]++
		if spec.IncludeProfile {
			m.ProfileShare++
		}
		if spec.IncludeDetect {
			m.DetectShare++
		}
		pair := spec.Request
		pair.IncludeProfile, pair.IncludeDetect = false, false
		distinct[requestKey(pair)] = true
		if rec.status == http.StatusTooManyRequests {
			m.Rejected++
		}
		if !w.jobOK(ctx, rec) {
			v.failed++
			continue
		}
		v.jobLatency = append(v.jobLatency, float64(rec.view.FinishedNS-rec.view.SubmittedNS)/1e9)
	}
	st := env.cache.Stats()
	m.ProfileShare /= float64(len(records))
	m.DetectShare /= float64(len(records))
	m.DistinctPairs = len(distinct)
	m.CASHits, m.CASMisses, m.CASBytes = st.Hits, st.Misses, st.Bytes
	if st.Hits+st.Misses > 0 {
		m.CASHitShare = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	w.lastMix = m
	return v
}

func (w *serviceWorkload) jobOK(ctx context.Context, rec jobRecord) bool {
	if rec.status != http.StatusAccepted || rec.view.State != service.StateDone {
		fmt.Fprintf(os.Stderr, "perfbench: job %d: status %d state %q %s\n", rec.spec, rec.status, rec.view.State, rec.view.Error)
		return false
	}
	req := w.batch[rec.spec].Request
	want, err := w.reference(ctx, req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: job %d: direct run: %v\n", rec.spec, err)
		return false
	}
	got, err := normalizeResult(rec.view.Result)
	if err != nil || !bytes.Equal(got, want) {
		fmt.Fprintf(os.Stderr, "perfbench: job %d (%s): result differs from the direct run\n", rec.spec, requestKey(req))
		return false
	}
	return true
}

// reference runs a request directly, uncached, once per distinct request.
func (w *serviceWorkload) reference(ctx context.Context, req crashresist.Request) ([]byte, error) {
	key := requestKey(req)
	if ref, ok := w.refs[key]; ok {
		return ref, nil
	}
	req.Workers = 1
	res, err := crashresist.Run(ctx, req)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	ref, err := normalizeResult(raw)
	if err != nil {
		return nil, err
	}
	w.refs[key] = ref
	return ref, nil
}

func requestKey(req crashresist.Request) string {
	data, _ := json.Marshal(req) // a Request's wire fields always marshal
	return string(data)
}

func kindOf(req crashresist.Request) string {
	for _, k := range serviceMix {
		if k.pipeline == req.Pipeline && (k.target == req.Target || k.target == "gen" && strings.HasPrefix(req.Target, "gen-")) {
			return k.name
		}
	}
	return "other"
}

// normalizeResult strips what legitimately differs between a cached
// service run and a direct uncached run: every "stats" record (wall times,
// cache counters) and the profile's cache-byte samples.
func normalizeResult(raw []byte) ([]byte, error) {
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
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
	if top, ok := doc.(map[string]any); ok {
		if p, ok := top["profile"].(map[string]any); ok {
			if totals, ok := p["totals"].(map[string]any); ok {
				delete(totals, "cache_bytes")
			}
			if samples, ok := p["samples"].([]any); ok {
				kept := samples[:0]
				for _, s := range samples {
					if sm, ok := s.(map[string]any); ok && sm["kind"] == "cache_bytes" {
						continue
					}
					kept = append(kept, s)
				}
				p["samples"] = kept
			}
		}
	}
	return json.Marshal(doc)
}

// jobPhases splits done jobs' latencies into queue wait and run time.
func jobPhases(records []jobRecord) (wait, runT, resultKB []float64) {
	for _, rec := range records {
		if rec.view.State != service.StateDone {
			continue
		}
		v := rec.view
		wait = append(wait, float64(v.StartedNS-v.SubmittedNS)/1e9)
		runT = append(runT, float64(v.FinishedNS-v.StartedNS)/1e9)
		resultKB = append(resultKB, float64(len(v.Result))/1e3)
	}
	return wait, runT, resultKB
}

// derive reads a traced batch: CAS traffic from the shared cache, job
// phases from the job views, and run counters from the job results. It
// checks that the cache's own counters equal the sum the runs reported,
// and that the client spans cover every submission.
func (w *serviceWorkload) derive(e, out any, tr *tracer, _ opSample, m map[string]float64, ck *checks) {
	env := e.(*serviceEnv)
	records := out.([]jobRecord)
	st := env.cache.Stats()
	m["cas.hits"], m["cas.misses"], m["cas.bytes"] = float64(st.Hits), float64(st.Misses), float64(st.Bytes)
	if st.Hits+st.Misses > 0 {
		m["cas.hit_share"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	wait, runT, kb := jobPhases(records)
	m["service.queue_wait_p50_s"] = median(wait)
	m["service.run_p50_s"] = median(runT)
	var total float64
	for _, x := range kb {
		total += x
	}
	if len(kb) > 0 {
		m["service.result_kb"] = total / float64(len(kb))
	}
	rejected, done := 0, 0
	var hits, misses, pool uint64
	for _, rec := range records {
		if rec.status == http.StatusTooManyRequests {
			rejected++
		}
		if rec.view.State != service.StateDone {
			continue
		}
		done++
		var res crashresist.Result
		if err := json.Unmarshal(rec.view.Result, &res); err != nil {
			ck.expect(false, "job %d result decodes: %v", rec.spec, err)
			continue
		}
		for _, rs := range res.RunStats() {
			hits += rs.Counter(crashresist.CtrCacheHits)
			misses += rs.Counter(crashresist.CtrCacheMisses)
			pool += rs.Counter(crashresist.CtrPoolTasks)
		}
	}
	m["service.rejected"] = float64(rejected)
	m["discover.pool_tasks"] = float64(pool)
	ck.expect(done+rejected == len(records), "%d done + %d rejected jobs account for all %d submitted", done, rejected, len(records))
	ck.expect(tr.count("submit") == len(records), "%d traced submit requests for %d jobs", tr.count("submit"), len(records))
	ck.expect(hits == st.Hits && misses == st.Misses,
		"jobs' RunStats CAS hits/misses %d/%d equal the shared cache's %d/%d", hits, misses, st.Hits, st.Misses)

	w.entrySizes = w.entrySizes[:0]
	filepath.WalkDir(env.dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				w.entrySizes = append(w.entrySizes, info.Size())
			}
		}
		return nil
	})
}
