package discover

// Resilience machinery shared by the three pipelines: deterministic fault
// injection at the pool.job site, bounded per-job retry with virtual
// backoff, and graceful degradation.
//
// The design preserves the package's determinism contract. Injection
// decisions are stateless hashes of (plan seed, site, job key, attempt), so
// every worker count draws the same faults; retried attempts advance the
// attempt number, so transient faults clear deterministically. A job that
// exhausts its retries does not abort the run: it leaves its
// index-addressed result slot at the zero value and files a typed Degraded
// record, and the merge stages skip the empty slots. Records are ordered by
// (stage execution order, job index), never by scheduling.
//
// A nil *resilience (no plan, no retries) short-circuits runJob to a
// plain fn(0) call with the error propagated unchanged, so the default
// configuration is byte-identical to the pre-resilience pipelines.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"crashresist/internal/faultinject"
)

// ErrDegraded marks a pipeline result that is partial because one or more
// jobs exhausted their retries. Use errors.Is to detect it through wrapping.
var ErrDegraded = errors.New("pipeline degraded")

// Degraded records one job that failed past its retry budget and was
// dropped from the report instead of aborting the run. The records a run
// produces are a deterministic function of the fault plan's seed.
type Degraded struct {
	// Stage names the pipeline stage the job belonged to.
	Stage string `json:"stage"`
	// Key is the job's unit name within the stage (syscall/arg index, API
	// name, module name, ...). A job of a fanned-out stage records its span
	// as <Stage>/<Key>.
	Key string `json:"key"`
	// Job is the job's index in the stage's work list.
	Job int `json:"job"`
	// Attempts counts how many times the job ran before degrading.
	Attempts int `json:"attempts"`
	// Err is the final attempt's error text.
	Err string `json:"error"`
}

// resilience carries one run's fault plan, retry budget and degradation
// log. Methods on a nil receiver behave as "inactive".
type resilience struct {
	plan    *faultinject.Plan
	retries int

	mu    sync.Mutex
	order map[string]int // stage name -> first-seen ordinal
	recs  []degradedRec
}

type degradedRec struct {
	ord int
	d   Degraded
}

// newResilience returns nil when neither a plan nor a retry budget is
// configured, keeping the default path allocation- and branch-free.
func newResilience(plan *faultinject.Plan, retries int) *resilience {
	if plan == nil && retries <= 0 {
		return nil
	}
	return &resilience{plan: plan, retries: retries}
}

// runJob executes one job with injection, bounded retry and degradation.
// The job key feeds the pool.job injection site as Key(target, stage,
// jobKey). Context errors are returned immediately — cancellation is never
// retried or degraded. Transient failures retry up to the budget,
// accumulating 1<<attempt virtual backoff ticks per retry (no wall-clock
// sleep, so runs stay fast and deterministic). A job that exhausts the
// budget, or fails permanently, files a Degraded record and returns nil so
// the stage continues; its result slot keeps the zero value. Each failed
// attempt makes one charge, attributed to the job.
func (r *pipelineRun) runJob(ctx context.Context, stage, jobKey string, job int, fn func(attempt int) error) error {
	res := r.res
	if res == nil {
		return fn(0)
	}
	key := faultinject.Key(r.target, stage, jobKey)
	for attempt := 0; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		c := charge{stage: stage, unit: jobKey}
		var err error
		if ierr := res.plan.ErrAttempt(faultinject.SitePoolJob, key, attempt); ierr != nil {
			c.injected = 1
			err = fmt.Errorf("%s job %q: %w", stage, jobKey, ierr)
		} else if err = fn(attempt); err == nil {
			return nil
		}
		cerr := ctx.Err()
		// Retry decisions are a stateless hash of (seed, site, key,
		// attempt), so these charges are scheduling-independent too.
		retry := cerr == nil && attempt < res.retries && faultinject.IsTransient(err)
		if retry {
			c.retries, c.backoff = 1, uint64(1)<<attempt
		} else if cerr == nil {
			c.degraded = 1
		}
		r.charge(c)
		if cerr != nil {
			return cerr
		}
		if !retry {
			res.degrade(stage, jobKey, job, attempt+1, err)
			return nil
		}
	}
}

// degrade files one degradation record.
func (r *resilience) degrade(stage, jobKey string, job, attempts int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.order == nil {
		r.order = make(map[string]int)
	}
	ord, ok := r.order[stage]
	if !ok {
		ord = len(r.order)
		r.order[stage] = ord
	}
	r.recs = append(r.recs, degradedRec{ord: ord, d: Degraded{
		Stage:    stage,
		Key:      jobKey,
		Job:      job,
		Attempts: attempts,
		Err:      err.Error(),
	}})
}

// take returns the accumulated records ordered by stage execution order,
// then job index. Nil when nothing degraded (so omitempty elides the
// report field).
func (r *resilience) take() []Degraded {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.recs) == 0 {
		return nil
	}
	sort.Slice(r.recs, func(i, j int) bool {
		if r.recs[i].ord != r.recs[j].ord {
			return r.recs[i].ord < r.recs[j].ord
		}
		return r.recs[i].d.Job < r.recs[j].d.Job
	})
	out := make([]Degraded, len(r.recs))
	for i, rec := range r.recs {
		out[i] = rec.d
	}
	return out
}
