package metrics

import "sync"

// Sink receives a run's live stage events and its final snapshot. Sinks
// attached to analyses that fan out across servers are shared between
// runs and must be safe for concurrent use; the sinks in this package all
// are.
type Sink interface {
	// Event receives one live stage event.
	Event(ev StageEvent)
	// Flush receives the final RunStats when the run completes. A
	// returned error propagates out of the analysis.
	Flush(stats *RunStats) error
}

// MemorySink retains events and snapshots in memory — the test and
// embedding-friendly sink.
type MemorySink struct {
	mu     sync.Mutex
	events []StageEvent
	runs   []*RunStats
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Event implements Sink.
func (m *MemorySink) Event(ev StageEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events = append(m.events, ev)
}

// Flush implements Sink.
func (m *MemorySink) Flush(stats *RunStats) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runs = append(m.runs, stats)
	return nil
}

// Events returns a copy of the recorded events in arrival order.
func (m *MemorySink) Events() []StageEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]StageEvent(nil), m.events...)
}

// Runs returns the flushed run snapshots in completion order.
func (m *MemorySink) Runs() []*RunStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*RunStats(nil), m.runs...)
}
