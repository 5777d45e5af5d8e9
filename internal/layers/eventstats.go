package layers

import (
	"sync/atomic"

	"ndsnn/internal/metrics"
)

// Event-path accounting: Conv2d and Linear tally how the event-driven
// forward fast path engaged (metrics.EventStats documents the fields) and
// expose the counters through EventStats/ResetEventStats; internal/snn
// aggregates them across a network so the efficiency accounting reflects
// actually-skipped work rather than the analytic spikeRate × density model
// alone.

// EventRecorder is implemented by layers that maintain event-path counters.
type EventRecorder interface {
	EventStats() metrics.EventStats
	ResetEventStats()
}

// eventTally is the layer-side accumulator behind the EventStats method.
// Conv2d updates it from the per-batch worker goroutines, so all fields are
// atomics; workers pre-aggregate per chunk and publish once to keep the
// atomic traffic negligible next to the GEMMs.
type eventTally struct {
	forwards, eventForwards int64
	entries, activeEntries  int64
}

func (t *eventTally) add(c metrics.EventStats) {
	atomic.AddInt64(&t.forwards, c.Forwards)
	atomic.AddInt64(&t.eventForwards, c.EventForwards)
	atomic.AddInt64(&t.entries, c.Entries)
	atomic.AddInt64(&t.activeEntries, c.ActiveEntries)
}

func (t *eventTally) snapshot() metrics.EventStats {
	return metrics.EventStats{
		Forwards:      atomic.LoadInt64(&t.forwards),
		EventForwards: atomic.LoadInt64(&t.eventForwards),
		Entries:       atomic.LoadInt64(&t.entries),
		ActiveEntries: atomic.LoadInt64(&t.activeEntries),
	}
}

func (t *eventTally) reset() {
	atomic.StoreInt64(&t.forwards, 0)
	atomic.StoreInt64(&t.eventForwards, 0)
	atomic.StoreInt64(&t.entries, 0)
	atomic.StoreInt64(&t.activeEntries, 0)
}
