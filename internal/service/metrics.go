package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"crashresist/internal/metrics"
)

// latencySamples bounds the per-tenant wait/run sample rings behind the
// summary quantiles: enough to make p99 meaningful under the load
// harness, small enough to stay O(1) per job.
const latencySamples = 2048

// tenantStats accumulates one tenant's job counters and latency samples.
type tenantStats struct {
	submitted uint64
	rejected  uint64
	completed uint64
	failed    uint64
	canceled  uint64
	wait      *metrics.Ring[float64] // seconds queued before dispatch
	run       *metrics.Ring[float64] // seconds running
	waitSum   float64
	runSum    float64
	waitCount uint64
	runCount  uint64
}

// svcMetrics is the service-level Prometheus state: per-tenant job
// counters plus wait/run latency summaries. All methods are safe for
// concurrent use.
type svcMetrics struct {
	mu      sync.Mutex
	tenants map[string]*tenantStats
}

func newSvcMetrics() *svcMetrics {
	return &svcMetrics{tenants: make(map[string]*tenantStats)}
}

func (m *svcMetrics) tenant(name string) *tenantStats {
	t, ok := m.tenants[name]
	if !ok {
		t = &tenantStats{
			wait: metrics.NewRing[float64](latencySamples),
			run:  metrics.NewRing[float64](latencySamples),
		}
		m.tenants[name] = t
	}
	return t
}

func (m *svcMetrics) submitted(tenant string) {
	m.mu.Lock()
	m.tenant(tenant).submitted++
	m.mu.Unlock()
}

func (m *svcMetrics) rejected(tenant string) {
	m.mu.Lock()
	m.tenant(tenant).rejected++
	m.mu.Unlock()
}

func (m *svcMetrics) completed(tenant string) {
	m.mu.Lock()
	m.tenant(tenant).completed++
	m.mu.Unlock()
}

func (m *svcMetrics) failed(tenant string) {
	m.mu.Lock()
	m.tenant(tenant).failed++
	m.mu.Unlock()
}

func (m *svcMetrics) canceled(tenant string) {
	m.mu.Lock()
	m.tenant(tenant).canceled++
	m.mu.Unlock()
}

// observe records one finished job's queue wait and run duration.
func (m *svcMetrics) observe(tenant string, wait, run time.Duration) {
	m.mu.Lock()
	t := m.tenant(tenant)
	t.wait.Push(wait.Seconds())
	t.waitSum += wait.Seconds()
	t.waitCount++
	t.run.Push(run.Seconds())
	t.runSum += run.Seconds()
	t.runCount++
	m.mu.Unlock()
}

// quantile returns the q-quantile (0..1) of the retained samples via the
// nearest-rank method, or 0 with ok=false when empty.
func quantile(samples []float64, q float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx], true
}

// Quantile exposes a tenant's retained latency quantile to tests and the
// load harness: kind is "wait" or "run".
func (s *Service) Quantile(tenant, kind string, q float64) (float64, bool) {
	s.met.mu.Lock()
	defer s.met.mu.Unlock()
	t, ok := s.met.tenants[tenant]
	if !ok {
		return 0, false
	}
	switch kind {
	case "wait":
		return quantile(t.wait.Items(), q)
	case "run":
		return quantile(t.run.Items(), q)
	default:
		return 0, false
	}
}

// tenantGauges is one tenant's instantaneous queue occupancy, sampled
// under Service.mu for the gauge families.
type tenantGauges struct {
	queued, running, tokens int
}

// writePrometheus renders the service job families in Prometheus text
// exposition format. Tenants are emitted in sorted order so scrapes are
// deterministic. The gauge families carry both the unlabeled service
// total (stable scrape surface) and one {tenant=...} series per tenant
// currently occupying the queue or the budget.
func (s *Service) writePrometheus(w io.Writer) {
	s.mu.Lock()
	queued, running, tokens := s.queued, s.running, s.tokens
	perTenant := make(map[string]*tenantGauges)
	at := func(name string) *tenantGauges {
		g, ok := perTenant[name]
		if !ok {
			g = &tenantGauges{}
			perTenant[name] = g
		}
		return g
	}
	for t, q := range s.queues {
		at(t).queued = len(q)
	}
	for _, j := range s.jobs {
		if j.state == StateRunning {
			g := at(j.tenant)
			g.running++
			g.tokens += j.workers
		}
	}
	s.mu.Unlock()
	tnames := make([]string, 0, len(perTenant))
	for t := range perTenant {
		tnames = append(tnames, t)
	}
	sort.Strings(tnames)

	fmt.Fprintf(w, "# HELP crashresist_jobs_queued Jobs waiting for dispatch.\n# TYPE crashresist_jobs_queued gauge\ncrashresist_jobs_queued %d\n", queued)
	for _, t := range tnames {
		if g := perTenant[t]; g.queued > 0 {
			fmt.Fprintf(w, "crashresist_jobs_queued{tenant=%s} %d\n", metrics.QuoteLabel(t), g.queued)
		}
	}
	fmt.Fprintf(w, "# HELP crashresist_jobs_running Jobs currently holding worker tokens.\n# TYPE crashresist_jobs_running gauge\ncrashresist_jobs_running %d\n", running)
	for _, t := range tnames {
		if g := perTenant[t]; g.running > 0 {
			fmt.Fprintf(w, "crashresist_jobs_running{tenant=%s} %d\n", metrics.QuoteLabel(t), g.running)
		}
	}
	fmt.Fprintf(w, "# HELP crashresist_worker_tokens_free Worker-budget tokens not held by running jobs.\n# TYPE crashresist_worker_tokens_free gauge\ncrashresist_worker_tokens_free %d\n", tokens)
	fmt.Fprintf(w, "# HELP crashresist_worker_tokens_held Worker-budget tokens held by a tenant's running jobs.\n# TYPE crashresist_worker_tokens_held gauge\n")
	for _, t := range tnames {
		if g := perTenant[t]; g.tokens > 0 {
			fmt.Fprintf(w, "crashresist_worker_tokens_held{tenant=%s} %d\n", metrics.QuoteLabel(t), g.tokens)
		}
	}

	s.met.mu.Lock()
	defer s.met.mu.Unlock()
	names := make([]string, 0, len(s.met.tenants))
	for t := range s.met.tenants {
		names = append(names, t)
	}
	sort.Strings(names)

	counters := []struct {
		name, help string
		get        func(*tenantStats) uint64
	}{
		{"crashresist_jobs_submitted_total", "Jobs accepted into the queue.", func(t *tenantStats) uint64 { return t.submitted }},
		{"crashresist_jobs_rejected_total", "Submissions rejected with backpressure (429).", func(t *tenantStats) uint64 { return t.rejected }},
		{"crashresist_jobs_completed_total", "Jobs finished successfully.", func(t *tenantStats) uint64 { return t.completed }},
		{"crashresist_jobs_failed_total", "Jobs finished with an error.", func(t *tenantStats) uint64 { return t.failed }},
		{"crashresist_jobs_canceled_total", "Jobs canceled before or during their run.", func(t *tenantStats) uint64 { return t.canceled }},
	}
	for _, c := range counters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", c.name, c.help, c.name)
		for _, name := range names {
			fmt.Fprintf(w, "%s{tenant=%s} %d\n", c.name, metrics.QuoteLabel(name), c.get(s.met.tenants[name]))
		}
	}

	summaries := []struct {
		name, help string
		ring       func(*tenantStats) *metrics.Ring[float64]
		sum        func(*tenantStats) float64
		count      func(*tenantStats) uint64
	}{
		{
			"crashresist_job_wait_seconds", "Queue wait before dispatch (retained-sample summary).",
			func(t *tenantStats) *metrics.Ring[float64] { return t.wait },
			func(t *tenantStats) float64 { return t.waitSum },
			func(t *tenantStats) uint64 { return t.waitCount },
		},
		{
			"crashresist_job_run_seconds", "Run duration from dispatch to finish (retained-sample summary).",
			func(t *tenantStats) *metrics.Ring[float64] { return t.run },
			func(t *tenantStats) float64 { return t.runSum },
			func(t *tenantStats) uint64 { return t.runCount },
		},
	}
	for _, sm := range summaries {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n", sm.name, sm.help, sm.name)
		for _, name := range names {
			t := s.met.tenants[name]
			tenant := metrics.QuoteLabel(name)
			items := sm.ring(t).Items()
			for _, q := range []float64{0.5, 0.9, 0.99} {
				if v, ok := quantile(items, q); ok {
					fmt.Fprintf(w, "%s{tenant=%s,quantile=\"%g\"} %g\n", sm.name, tenant, q, v)
				}
			}
			fmt.Fprintf(w, "%s_sum{tenant=%s} %g\n", sm.name, tenant, sm.sum(t))
			fmt.Fprintf(w, "%s_count{tenant=%s} %d\n", sm.name, tenant, sm.count(t))
		}
	}
}
