package discover

// Bounded worker pool shared by the three discovery pipelines.
//
// Every fanned-out stage (validate, fuzz, classify, symex) runs through
// fanOut, which owns the stage from start to end: the stage span and its
// job names, the stage timeout, the pool, runJob's retry and degradation,
// and the charge of each job's costs. A job is named once, by its unit
// string: the span tree's <stage>/<unit>, the pool.job fault key,
// Degraded.Key and the ledger's unit all read that one name.
//
// The pool itself, runIndexed / runSharded, keeps parallel runs
// byte-identical to sequential ones: jobs are numbered, every worker
// writes its result into the slot owned by its job index, and the caller
// merges the index-addressed slice in order afterwards. Nothing is ever
// appended under a lock, so scheduling order cannot leak into report
// contents.
//
// Both runners take a context and an optional metrics stage span. Workers
// stop claiming jobs once the context is cancelled or a job has failed;
// the lowest-index job error wins, and ctx.Err() is only reported when no
// job failed. The span receives a JobDone per successful job and the final
// per-worker task distribution; a nil span records nothing.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"crashresist/internal/metrics"
)

// fanOut runs one fanned-out stage of n jobs. Job i is named unit(i).
// newLane, when set, builds one state per pool lane (symex's private
// executors); stateless stages pass nil. job returns the costs of one
// attempt, and fanOut charges them to the stage, the unit and the stage's
// latency histogram. A failed attempt's costs are dropped: runJob charges
// the failure and retries or degrades the job.
func fanOut[S any](ctx context.Context, r *pipelineRun, stage string, n int, unit func(i int) string,
	newLane func() (S, error), job func(lane S, i int, unit string, attempt int) (charge, error)) error {
	span := r.col.StartStage(stage, n)
	defer span.End()
	span.NameJobs(func(i int) string { return stage + "/" + unit(i) })
	if r.StageTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.StageTimeout)
		defer cancel()
	}
	if newLane == nil {
		newLane = func() (S, error) {
			var lane S
			return lane, nil
		}
	}
	return runSharded(ctx, r.Workers, n, span, newLane, func(lane S, i int) error {
		u := unit(i)
		return r.runJob(ctx, stage, u, i, func(attempt int) error {
			c, err := job(lane, i, u, attempt)
			if err != nil {
				return err
			}
			c.stage, c.unit, c.span = stage, u, span
			r.charge(c)
			return nil
		})
	})
}

// poolWorkers resolves a worker-count setting: values <= 0 select
// GOMAXPROCS, everything else is used as-is.
func poolWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// runIndexed runs fn(0) .. fn(n-1) on up to workers goroutines: runSharded
// without per-worker state.
func runIndexed(ctx context.Context, workers, n int, span *metrics.Stage, fn func(i int) error) error {
	return runSharded(ctx, workers, n, span,
		func() (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, i int) error { return fn(i) })
}

// runSharded runs fn(s, 0) .. fn(s, n-1) on up to workers lanes, each
// owning one state s (a private VM environment, a private symbolic
// executor). newState runs once per lane, up-front on the calling
// goroutine so construction order is deterministic; fn receives the state
// of whichever lane claimed the job, and states never travel between
// goroutines after handoff. Lanes pull job indices from a shared atomic
// counter and stop claiming once the context is done or any job has
// failed. Each job's error lands in its own slot and the lowest-index
// error is returned: every lower-index job was claimed before the first
// failure, so the reported failure is independent of scheduling. With one
// worker the single lane runs on the calling goroutine.
func runSharded[S any](ctx context.Context, workers, n int, span *metrics.Stage, newState func() (S, error), fn func(s S, i int) error) error {
	workers = min(poolWorkers(workers), n)
	if n == 0 {
		return ctx.Err()
	}
	states := make([]S, workers)
	for w := range states {
		s, err := newState()
		if err != nil {
			return err
		}
		states[w] = s
	}
	errs := make([]error, n)
	tasks := make([]int, workers)
	var next atomic.Int64
	var failed atomic.Bool
	lane := func(w int) {
		sh := span.Shard(w)
		defer sh.End()
		for ctx.Err() == nil && !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			js := sh.Job(i)
			errs[i] = fn(states[w], i)
			js.End()
			if errs[i] != nil {
				failed.Store(true)
				return
			}
			tasks[w]++
			span.JobDone()
		}
	}
	if workers == 1 {
		lane(0)
	} else {
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lane(w)
			}()
		}
		wg.Wait()
	}
	span.ShardTasks(tasks)
	if err := firstError(errs); err != nil {
		return err
	}
	return ctx.Err()
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
