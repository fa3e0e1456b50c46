package trace

import (
	"context"
	"log/slog"
	"sync"
)

// LogEvents bridges a journal to structured logging: a background goroutine
// emits one slog record per event (vcd.event message, lifecycle fields as
// attributes) — first the events the ring retains, then every event
// journaled after, each Seq once. Returns a stop function that
// unsubscribes and waits for the goroutine to exit — the goroutine-leak
// guarantee the test suite pins down.
//
// Slow handlers cannot stall the matching kernel: the subscription channel
// drops batches when full (counted by vcd_trace_subscriber_dropped_total).
func LogEvents(j *Journal, logger *slog.Logger) (stop func()) {
	if logger == nil {
		logger = slog.Default()
	}
	// Subscribed before the retained events are read, so an event journaled
	// in between is in both and no event falls between them.
	ch, cancel := j.Subscribe(64)
	retained := j.Events(Filter{Kind: KindAny})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var next uint64 // Seq of the first event not yet logged
		log := func(batch []Event) {
			for _, ev := range batch {
				if ev.Seq < next {
					continue
				}
				next = ev.Seq + 1
				attrs := []slog.Attr{
					slog.Uint64("seq", ev.Seq),
					slog.String("stream", ev.StreamName),
					slog.String("kind", ev.Kind.String()),
					slog.Int("query", int(ev.QID)),
					slog.Int("startFrame", int(ev.Start)),
					slog.Int("endFrame", int(ev.End)),
					slog.Int("windows", int(ev.Windows)),
				}
				if ev.Estimate >= 0 {
					attrs = append(attrs, slog.Float64("estimate", float64(ev.Estimate)))
				}
				if ev.Margin != 0 {
					attrs = append(attrs, slog.Float64("margin", float64(ev.Margin)))
				}
				logger.LogAttrs(context.Background(), slog.LevelInfo, "vcd.event", attrs...)
			}
		}
		log(retained)
		for batch := range ch {
			log(batch)
		}
	}()
	return func() {
		cancel()
		wg.Wait()
	}
}
