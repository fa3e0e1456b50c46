package trace

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer makes a bytes.Buffer safe to read while the slog bridge
// goroutine writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitGoroutines polls until the process goroutine count drops back to at
// most n (scheduling may briefly keep an exiting goroutine visible).
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: %d running, want <= %d", runtime.NumGoroutine(), n)
}

func TestLogEventsBridgesAndStops(t *testing.T) {
	j := NewJournal(64, 8)
	r := NewRecorder(j, "logged", "sequential", "bit")
	before := runtime.NumGoroutine()

	var buf syncBuffer
	stop := LogEvents(j, slog.New(slog.NewJSONHandler(&buf, nil)))
	publishWindow(r,
		Event{Kind: Born, QID: -1, Start: 0, End: 10, Windows: 1, Estimate: -1},
		Event{Kind: Reported, QID: 4, Start: 0, End: 10, Windows: 1, Estimate: 0.83},
	)
	// The bridge is asynchronous; wait for the lines to land.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !strings.Contains(buf.String(), "reported") {
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	stop() // stopping twice must be safe

	out := buf.String()
	for _, want := range []string{"vcd.event", `"stream":"logged"`, `"kind":"born"`, `"kind":"reported"`, `"query":4`} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
	// Born carries no estimate; Reported does.
	if strings.Contains(strings.Split(out, "\n")[0], "estimate") {
		t.Errorf("born event logged an estimate: %s", strings.Split(out, "\n")[0])
	}
	waitGoroutines(t, before)
}

func TestSubscribeCancelLeaksNothing(t *testing.T) {
	j := NewJournal(16, 4)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		_, cancel := j.Subscribe(2)
		cancel()
	}
	j.mu.Lock()
	n := len(j.subs)
	j.mu.Unlock()
	if n != 0 {
		t.Errorf("%d subscribers still registered after cancel", n)
	}
	waitGoroutines(t, before)
}

// TestLogEventsReplaysRetained: the bridge first logs the events the ring
// already holds — a server's restore-on-boot replay journals before
// anyone can subscribe — then follows the journal, each Seq exactly once.
func TestLogEventsReplaysRetained(t *testing.T) {
	j := NewJournal(64, 8)
	r := NewRecorder(j, "replayed", "sequential", "bit")
	if j.events != nil || j.matches != nil {
		t.Fatal("a journal with nothing journaled allocated its rings")
	}
	publishWindow(r,
		Event{Kind: Born, QID: -1, Start: 0, End: 10, Windows: 1, Estimate: -1},
		Event{Kind: Extended, QID: 4, Start: 0, End: 10, Windows: 1, Estimate: 0.5},
	)
	var buf syncBuffer
	stop := LogEvents(j, slog.New(slog.NewJSONHandler(&buf, nil)))
	publishWindow(r, Event{Kind: Reported, QID: 4, Start: 0, End: 20, Windows: 2, Estimate: 0.83})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !strings.Contains(buf.String(), "reported") {
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	var seqs []uint64
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct{ Seq uint64 }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		seqs = append(seqs, rec.Seq)
	}
	if !slices.Equal(seqs, []uint64{0, 1, 2}) {
		t.Errorf("logged seqs %v, want [0 1 2]:\n%s", seqs, buf.String())
	}
}
