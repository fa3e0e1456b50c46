package stats

import (
	"slices"
	"strings"
	"testing"
	"time"
)

func TestTimerAccumulates(t *testing.T) {
	var tm Timer
	tm.Start()
	time.Sleep(2 * time.Millisecond)
	tm.Stop()
	first := tm.Elapsed()
	if first < time.Millisecond {
		t.Errorf("elapsed %v after 2ms sleep", first)
	}
	tm.Start()
	time.Sleep(2 * time.Millisecond)
	tm.Stop()
	if tm.Elapsed() <= first {
		t.Error("second interval not accumulated")
	}
	tm.Reset()
	if tm.Elapsed() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestTimerIdempotentStartStop(t *testing.T) {
	var tm Timer
	tm.Start()
	tm.Start() // no-op
	tm.Stop()
	e := tm.Elapsed()
	tm.Stop() // no-op
	if tm.Elapsed() != e {
		t.Error("double Stop changed elapsed")
	}
}

func TestTimerElapsedWhileRunning(t *testing.T) {
	var tm Timer
	tm.Start()
	time.Sleep(time.Millisecond)
	if tm.Elapsed() == 0 {
		t.Error("Elapsed while running returned 0")
	}
}

func TestTime(t *testing.T) {
	d := Time(func() { time.Sleep(time.Millisecond) })
	if d < time.Millisecond {
		t.Errorf("Time measured %v", d)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "param", "value", "time")
	tb.AddRow(100, 0.123456, 2500*time.Microsecond)
	tb.AddRow("long-param-name", 1.0, time.Millisecond)
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	s := tb.String()
	for _, want := range []string{"# Fig X", "param", "0.123", "2.50ms", "long-param-name", "1.000"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
	// Columns aligned: header line and first data line share the position
	// of the second column.
	lines := strings.Split(s, "\n")
	header, data := lines[1], lines[3]
	if strings.Index(header, "value") != strings.Index(data, "0.123") {
		t.Errorf("columns misaligned:\n%s", s)
	}
}

func TestTableEmpty(t *testing.T) {
	tb := NewTable("", "a")
	s := tb.String()
	if !strings.Contains(s, "a") {
		t.Error("empty table lacks header")
	}
}

func TestWriteCSV(t *testing.T) {
	tb := NewTable("ignored", "a", "b")
	tb.AddRow("plain", 1.5)
	tb.AddRow("with,comma", `quote"inside`)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "a,b\nplain,1.500\n\"with,comma\",\"quote\"\"inside\"\n"
	if got != want {
		t.Errorf("CSV output:\n%q\nwant:\n%q", got, want)
	}
}

func TestTableColumn(t *testing.T) {
	tb := NewTable("Fig X", "K", "recall")
	tb.AddRow(10, 0.5)
	tb.AddRow(800, 1.0)
	if got := tb.Column("recall"); !slices.Equal(got, []string{"0.500", "1.000"}) {
		t.Errorf("Column(recall) = %q", got)
	}
	if got := tb.Column("nonsense"); got != nil {
		t.Errorf("Column(nonsense) = %q, want nil", got)
	}
}
