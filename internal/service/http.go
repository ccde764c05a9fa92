package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// retryAfterSeconds is the backpressure hint sent with 429 responses.
const retryAfterSeconds = 1

// Handler returns the service's HTTP surface:
//
//	POST   /v1/jobs             submit a JobSpec, 202 + queued JobView
//	GET    /v1/jobs?tenant=&state=   list job summaries (no results)
//	GET    /v1/jobs/{id}        full JobView, result included once done
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events SSE stream of the run's StageEvents
//	GET    /metrics             job families + the run registry's families
//
// Every other path falls through to the run registry's observability
// handler (/trace.json, /debug/pprof, /healthz) when one is
// configured.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.Registry != nil {
		mux.Handle("/", s.cfg.Registry.Handler())
	}
	return mux
}

// writeJSON renders v with the service's canonical JSON settings.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps a service error to its HTTP status and JSON envelope.
func writeError(w http.ResponseWriter, err error) {
	e := apiError{Schema: Schema, Error: err.Error()}
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds))
		e.RetryAfterSeconds = retryAfterSeconds
		writeJSON(w, http.StatusTooManyRequests, e)
	case errors.Is(err, ErrBadRequest):
		writeJSON(w, http.StatusBadRequest, e)
	case errors.Is(err, ErrNotFound):
		writeJSON(w, http.StatusNotFound, e)
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, e)
	default:
		writeJSON(w, http.StatusInternalServerError, e)
	}
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, fmt.Errorf("%w: decode body: %v", ErrBadRequest, err))
		return
	}
	view, err := s.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+view.ID)
	writeJSON(w, http.StatusAccepted, view)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	state := State(r.URL.Query().Get("state"))
	writeJSON(w, http.StatusOK, jobList{Schema: Schema, Jobs: s.List(tenant, state)})
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	view, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleEvents streams a job's StageEvents as server-sent events: first
// the replay buffer, then live events until the job ends or the client
// disconnects. Each event is one `data: {...}` line carrying the
// StageEvent JSON; the stream ends with an `event: done` record naming
// the job's final state.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, ErrNotFound)
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	writeEvent := func(ev any) bool {
		raw, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", raw); err != nil {
			return false
		}
		if canFlush {
			fl.Flush()
		}
		return true
	}

	replay, live := j.subscribe()
	for _, ev := range replay {
		if !writeEvent(ev) {
			if live != nil {
				j.unsubscribe(live)
			}
			return
		}
	}
	if live != nil {
		defer j.unsubscribe(live)
		for {
			select {
			case ev, open := <-live:
				if !open {
					live = nil
				} else if !writeEvent(ev) {
					return
				}
			case <-r.Context().Done():
				return
			}
			if live == nil {
				break
			}
		}
	}

	view, err := s.Get(j.id)
	final := string(view.State)
	if err != nil {
		final = string(StateDone) // evicted between close and read: it ended
	}
	fmt.Fprintf(w, "event: done\ndata: %s\n\n", strings.TrimSpace(fmt.Sprintf("%q", final)))
	if canFlush {
		fl.Flush()
	}
}

// handleMetrics renders the job families followed by the run registry's
// families (counters, stage latencies, span stats) in one scrape.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writePrometheus(w)
	if s.cfg.Registry != nil {
		_ = s.cfg.Registry.WritePrometheus(w)
	}
}
