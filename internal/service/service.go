package service

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"crashresist"
	"crashresist/internal/metrics"
)

// Runner executes one resolved analysis request. The default is
// crashresist.Run; tests substitute controllable runners to exercise the
// queue without paying for real analyses.
type Runner func(ctx context.Context, req crashresist.Request) (*crashresist.Result, error)

// Config tunes a Service. Zero values select the documented defaults.
type Config struct {
	// Budget is the worker-token pool shared by all concurrent runs: a
	// job occupies max(1, min(request workers, Budget)) tokens while
	// running, so the service never oversubscribes the machine no matter
	// how many tenants submit at once. Default max(4, GOMAXPROCS).
	Budget int
	// MaxQueue bounds the total queued (not yet running) jobs across all
	// tenants; submissions beyond it are rejected with ErrQueueFull
	// (HTTP 429). Default 256.
	MaxQueue int
	// Retain bounds the completed-job retention ring; finishing a job
	// past the bound evicts the oldest completed job (its ID becomes 404).
	// Default 1024.
	Retain int
	// EventBuffer bounds each job's StageEvent replay buffer served to
	// late SSE subscribers; further events are counted, not stored.
	// Default 256.
	EventBuffer int
	// Cache, when set, is attached to every job that carries no cache of
	// its own, so all tenants share one warm content-addressed store.
	Cache *crashresist.AnalysisCache
	// AllowCacheDir permits submissions to name a server-side cache_dir.
	// Off by default: the service manages caching, and accepting paths
	// from the wire would let tenants open arbitrary directories.
	AllowCacheDir bool
	// Registry, when set, receives every run's RunStats (the /metrics
	// Prometheus families and /trace.json ring).
	Registry *metrics.Registry
	// Runner overrides the analysis executor (tests). Default
	// crashresist.Run.
	Runner Runner
	// RecordDispatch retains the scheduler's dispatch log for fairness
	// assertions (tests); see DispatchLog.
	RecordDispatch bool
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = max(4, runtime.GOMAXPROCS(0))
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.Retain <= 0 {
		c.Retain = 1024
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	if c.Runner == nil {
		c.Runner = crashresist.Run
	}
	return c
}

// Dispatch is one scheduler decision, recorded when Config.RecordDispatch
// is on: which tenant's job started, and which tenants had jobs queued at
// that moment (chosen tenant included). Fairness tests replay the log.
type Dispatch struct {
	Tenant string
	JobID  string
	// Pending lists the tenants with at least one queued job at pick
	// time, sorted.
	Pending []string
}

// job is the service-internal record behind one JobView.
type job struct {
	id      string
	tenant  string
	req     crashresist.Request
	workers int // effective budget tokens

	// Guarded by Service.mu.
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	errMsg    string
	result    json.RawMessage

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// Event replay buffer and live subscribers, guarded by evMu (events
	// arrive from analysis worker goroutines while Service.mu is busy
	// elsewhere).
	evMu      sync.Mutex
	events    []metrics.StageEvent
	evDropped int
	evCap     int
	subs      map[chan metrics.StageEvent]struct{}
	evClosed  bool
}

// onEvent is the job's Request.Progress callback: append to the bounded
// replay buffer and fan out to live subscribers (dropping per-subscriber
// when a client cannot keep up).
func (j *job) onEvent(ev metrics.StageEvent) {
	j.evMu.Lock()
	defer j.evMu.Unlock()
	if j.evClosed {
		return
	}
	if len(j.events) < j.evCap {
		j.events = append(j.events, ev)
	} else {
		j.evDropped++
	}
	for ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop rather than stall the pipeline
		}
	}
}

// closeEvents ends the event stream, closing every subscriber channel.
func (j *job) closeEvents() {
	j.evMu.Lock()
	defer j.evMu.Unlock()
	if j.evClosed {
		return
	}
	j.evClosed = true
	for ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

// subscribe returns the replay buffer and, for unfinished jobs, a live
// channel closed when the job ends.
func (j *job) subscribe() (replay []metrics.StageEvent, live chan metrics.StageEvent) {
	j.evMu.Lock()
	defer j.evMu.Unlock()
	replay = append([]metrics.StageEvent(nil), j.events...)
	if j.evClosed {
		return replay, nil
	}
	live = make(chan metrics.StageEvent, 64)
	if j.subs == nil {
		j.subs = make(map[chan metrics.StageEvent]struct{})
	}
	j.subs[live] = struct{}{}
	return replay, live
}

// unsubscribe detaches a live channel (client went away first).
func (j *job) unsubscribe(ch chan metrics.StageEvent) {
	j.evMu.Lock()
	defer j.evMu.Unlock()
	if _, ok := j.subs[ch]; ok {
		delete(j.subs, ch)
		close(ch)
	}
}

// Service is the multi-tenant discovery job service. Construct with New,
// serve its Handler, and Close it to cancel running jobs and stop the
// scheduler.
type Service struct {
	cfg Config

	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool

	jobs    map[string]*job
	queues  map[string][]*job // per-tenant FIFO
	rr      []string          // tenants with queued jobs, service order
	rrPos   int               // next tenant to serve
	queued  int
	running int
	tokens  int
	seq     uint64
	retired *metrics.Ring[*job] // terminal jobs, oldest evicted to 404

	dispatches []Dispatch

	met *svcMetrics

	wg sync.WaitGroup
}

// New starts a service: the scheduler goroutine runs until Close.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	if cfg.Registry != nil && cfg.Registry.Profile() == nil {
		// The registry's /profile endpoint serves the merge of every
		// completed job's exact-cost profile.
		cfg.Registry.SetProfile(crashresist.NewProfile())
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		baseCtx:    ctx,
		cancelBase: cancel,
		jobs:       make(map[string]*job),
		queues:     make(map[string][]*job),
		tokens:     cfg.Budget,
		retired:    metrics.NewRing[*job](cfg.Retain),
		met:        newSvcMetrics(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(1)
	go s.dispatchLoop()
	return s
}

// Budget returns the configured worker-token pool size.
func (s *Service) Budget() int { return s.cfg.Budget }

// Submit validates and enqueues one job, returning its queued view.
// ErrQueueFull signals backpressure; ErrBadRequest an invalid spec.
func (s *Service) Submit(spec JobSpec) (JobView, error) {
	if spec.Schema != "" && spec.Schema != Schema {
		return JobView{}, fmt.Errorf("%w: unsupported schema %q (want %q)", ErrBadRequest, spec.Schema, Schema)
	}
	tenant := spec.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	req := spec.Request
	if req.CacheDir != "" && !s.cfg.AllowCacheDir {
		return JobView{}, fmt.Errorf("%w: cache_dir is not accepted here; the service manages caching", ErrBadRequest)
	}
	if err := req.Validate(); err != nil {
		return JobView{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if req.Cache == nil && req.CacheDir == "" {
		req.Cache = s.cfg.Cache
	}
	if s.cfg.Registry != nil {
		req.Sinks = append(req.Sinks, s.cfg.Registry)
		// Every run charges into a per-job profile, merged into the
		// registry's service-wide profile on completion (served at
		// /profile). Jobs submitting "profile": true additionally get
		// the per-job snapshot embedded in their Result.
		if req.Profile == nil {
			req.Profile = crashresist.NewProfile()
		}
	}

	workers := req.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > s.cfg.Budget {
		workers = s.cfg.Budget
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobView{}, ErrClosed
	}
	if s.queued >= s.cfg.MaxQueue {
		s.met.rejected(tenant)
		return JobView{}, fmt.Errorf("%w: %d job(s) queued (bound %d)", ErrQueueFull, s.queued, s.cfg.MaxQueue)
	}
	s.seq++
	jctx, jcancel := context.WithCancel(s.baseCtx)
	j := &job{
		id:        fmt.Sprintf("j%08d", s.seq),
		tenant:    tenant,
		req:       req,
		workers:   workers,
		state:     StateQueued,
		submitted: time.Now(),
		ctx:       jctx,
		cancel:    jcancel,
		done:      make(chan struct{}),
		evCap:     s.cfg.EventBuffer,
	}
	j.req.Progress = j.onEvent
	s.jobs[j.id] = j
	if len(s.queues[tenant]) == 0 {
		s.enrollTenant(tenant)
	}
	s.queues[tenant] = append(s.queues[tenant], j)
	s.queued++
	s.met.submitted(tenant)
	s.cond.Broadcast()
	return s.viewLocked(j, true), nil
}

// enrollTenant adds a tenant to the round-robin order, placed so it is
// served after every tenant currently awaiting service (join-at-tail: no
// queue-jumping ahead of waiters). Inserting just before the cursor and
// advancing it makes the newcomer the last stop of the current cycle.
func (s *Service) enrollTenant(tenant string) {
	if len(s.rr) == 0 || s.rrPos == 0 {
		s.rr = append(s.rr, tenant)
		return
	}
	s.rr = append(s.rr, "")
	copy(s.rr[s.rrPos+1:], s.rr[s.rrPos:])
	s.rr[s.rrPos] = tenant
	s.rrPos++
}

// dispatchLoop is the scheduler: strict per-tenant round-robin over the
// queued jobs, admitting the next job once its worker tokens are free.
// Head-of-line jobs too large for the remaining tokens wait (tokens
// always return, so progress is guaranteed); smaller jobs behind them are
// not reordered, keeping the fairness order exact.
func (s *Service) dispatchLoop() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		var j *job
		for {
			if s.closed {
				return
			}
			j = s.peekLocked()
			if j != nil && j.workers <= s.tokens {
				break
			}
			s.cond.Wait()
		}
		s.popLocked(j)
		s.tokens -= j.workers
		s.running++
		j.state = StateRunning
		j.started = time.Now()
		if s.cfg.RecordDispatch {
			s.dispatches = append(s.dispatches, Dispatch{
				Tenant:  j.tenant,
				JobID:   j.id,
				Pending: s.pendingTenantsLocked(j.tenant),
			})
		}
		s.wg.Add(1)
		go s.execute(j)
	}
}

// peekLocked returns the next job in round-robin order without removing
// it, or nil when nothing is queued.
func (s *Service) peekLocked() *job {
	for i := 0; i < len(s.rr); i++ {
		t := s.rr[(s.rrPos+i)%len(s.rr)]
		if q := s.queues[t]; len(q) > 0 {
			return q[0]
		}
	}
	return nil
}

// popLocked removes j (the current round-robin head) from its tenant
// queue and advances the cursor past that tenant.
func (s *Service) popLocked(j *job) {
	idx := -1
	for i, t := range s.rr {
		if t == j.tenant {
			idx = i
			break
		}
	}
	q := s.queues[j.tenant]
	q = q[1:]
	if len(q) == 0 {
		delete(s.queues, j.tenant)
		if idx >= 0 {
			s.rr = append(s.rr[:idx], s.rr[idx+1:]...)
			if len(s.rr) == 0 {
				s.rrPos = 0
			} else {
				if idx < s.rrPos {
					s.rrPos--
				}
				s.rrPos %= len(s.rr)
			}
		}
	} else {
		s.queues[j.tenant] = q
		if idx >= 0 {
			s.rrPos = (idx + 1) % len(s.rr)
		}
	}
	s.queued--
}

// removeQueuedLocked deletes a queued job from its tenant queue (cancel
// path; the job need not be the round-robin head).
func (s *Service) removeQueuedLocked(j *job) {
	q := s.queues[j.tenant]
	for i, qj := range q {
		if qj == j {
			q = append(q[:i:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(s.queues, j.tenant)
		for i, t := range s.rr {
			if t == j.tenant {
				s.rr = append(s.rr[:i], s.rr[i+1:]...)
				if len(s.rr) == 0 {
					s.rrPos = 0
				} else {
					if i < s.rrPos {
						s.rrPos--
					}
					s.rrPos %= len(s.rr)
				}
				break
			}
		}
	} else {
		s.queues[j.tenant] = q
	}
	s.queued--
}

// pendingTenantsLocked lists tenants with queued jobs, plus the tenant
// just chosen, sorted — the fairness log's ground truth.
func (s *Service) pendingTenantsLocked(chosen string) []string {
	seen := map[string]bool{chosen: true}
	for t, q := range s.queues {
		if len(q) > 0 {
			seen[t] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// execute runs one admitted job and finalizes it.
func (s *Service) execute(j *job) {
	defer s.wg.Done()
	res, err := s.cfg.Runner(j.ctx, j.req)
	if s.cfg.Registry != nil && j.req.Profile != nil {
		if p := s.cfg.Registry.Profile(); p != nil {
			p.Merge(j.req.Profile)
		}
	}
	var raw json.RawMessage
	if err == nil && res != nil {
		raw, err = json.Marshal(res)
	}

	s.mu.Lock()
	s.tokens += j.workers
	s.running--
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.result = raw
		s.met.completed(j.tenant)
	case j.ctx.Err() != nil:
		j.state = StateCanceled
		s.met.canceled(j.tenant)
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		s.met.failed(j.tenant)
	}
	s.met.observe(j.tenant, j.started.Sub(j.submitted), j.finished.Sub(j.started))
	s.retireLocked(j)
	s.cond.Broadcast()
	s.mu.Unlock()

	j.closeEvents()
	close(j.done)
}

// retireLocked pushes a terminal job into the retention ring, evicting
// (and forgetting) the oldest retired job past the bound.
func (s *Service) retireLocked(j *job) {
	if old, ok := s.retired.Push(j); ok {
		delete(s.jobs, old.id)
	}
}

// Cancel cancels a job: queued jobs finalize immediately, running jobs
// have their context cancelled and finalize when the pipeline unwinds.
// The returned view reflects the state after the call; terminal jobs are
// returned unchanged (cancelling them is a no-op).
func (s *Service) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobView{}, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		s.removeQueuedLocked(j)
		j.state = StateCanceled
		j.finished = time.Now()
		s.met.canceled(j.tenant)
		s.retireLocked(j)
		s.cond.Broadcast()
		view := s.viewLocked(j, true)
		s.mu.Unlock()
		j.cancel()
		j.closeEvents()
		close(j.done)
		return view, nil
	case StateRunning:
		view := s.viewLocked(j, true)
		s.mu.Unlock()
		j.cancel()
		return view, nil
	default:
		view := s.viewLocked(j, true)
		s.mu.Unlock()
		return view, nil
	}
}

// Get returns a job's full view (result included once done).
func (s *Service) Get(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	return s.viewLocked(j, true), nil
}

// Wait blocks until the job reaches a terminal state or ctx is done,
// returning the final view.
func (s *Service) Wait(ctx context.Context, id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, ErrNotFound
	}
	select {
	case <-j.done:
		return s.Get(id)
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
}

// List returns job summaries (no result payloads), newest first,
// optionally filtered by tenant and state.
func (s *Service) List(tenant string, state State) []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		if tenant != "" && j.tenant != tenant {
			continue
		}
		if state != "" && j.state != state {
			continue
		}
		out = append(out, s.viewLocked(j, false))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID > out[k].ID })
	return out
}

// DispatchLog returns the recorded scheduler decisions (RecordDispatch).
func (s *Service) DispatchLog() []Dispatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Dispatch(nil), s.dispatches...)
}

// Counts returns the current queued and running job totals.
func (s *Service) Counts() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued, s.running
}

// viewLocked renders a job; withResult includes the result payload.
func (s *Service) viewLocked(j *job, withResult bool) JobView {
	v := JobView{
		Schema:      Schema,
		ID:          j.id,
		Tenant:      j.tenant,
		State:       j.state,
		Pipeline:    j.req.Pipeline,
		Target:      j.req.Target,
		Workers:     j.workers,
		SubmittedNS: j.submitted.UnixNano(),
		Error:       j.errMsg,
	}
	if !j.started.IsZero() {
		v.StartedNS = j.started.UnixNano()
	}
	if !j.finished.IsZero() {
		v.FinishedNS = j.finished.UnixNano()
	}
	if withResult {
		v.Result = j.result
	}
	j.evMu.Lock()
	v.EventsDropped = j.evDropped
	j.evMu.Unlock()
	return v
}

// Close stops the scheduler, cancels queued and running jobs, and waits
// for in-flight runs to unwind. Safe to call more than once.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	// Finalize everything still queued so waiters unblock.
	var drained []*job
	for _, q := range s.queues {
		drained = append(drained, q...)
	}
	s.queues = make(map[string][]*job)
	s.rr = nil
	s.rrPos = 0
	s.queued = 0
	for _, j := range drained {
		j.state = StateCanceled
		j.finished = time.Now()
		s.met.canceled(j.tenant)
		s.retireLocked(j)
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	s.cancelBase()
	for _, j := range drained {
		j.closeEvents()
		close(j.done)
	}
	s.wg.Wait()
}
