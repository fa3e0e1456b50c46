// Package stats provides the small measurement utilities shared by the
// experiment harness: CPU timers and fixed-width result tables that print
// the same rows/series the paper's tables and figures report.
package stats

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
)

// Timer measures wall-clock processing time of a code region.
type Timer struct {
	start   time.Time
	elapsed time.Duration
	running bool
}

// Start begins (or resumes) timing.
func (t *Timer) Start() {
	if !t.running {
		t.start = time.Now()
		t.running = true
	}
}

// Stop pauses timing, accumulating the elapsed interval.
func (t *Timer) Stop() {
	if t.running {
		t.elapsed += time.Since(t.start)
		t.running = false
	}
}

// Elapsed returns the accumulated duration.
func (t *Timer) Elapsed() time.Duration {
	if t.running {
		return t.elapsed + time.Since(t.start)
	}
	return t.elapsed
}

// Reset clears the timer.
func (t *Timer) Reset() { *t = Timer{} }

// Time runs fn and returns its duration.
func Time(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// Table accumulates rows and renders them with aligned columns, suitable
// for regenerating the paper's tables and figure series as text.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.2fms", float64(v.Microseconds())/1000)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Column returns the cells under header as rendered, one per row, or nil
// when no column has that header.
func (t *Table) Column(header string) []string {
	i := slices.Index(t.Headers, header)
	if i < 0 {
		return nil
	}
	out := make([]string, len(t.rows))
	for r, row := range t.rows {
		out[r] = row[i]
	}
	return out
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.WriteTo(&b)
	return b.String()
}

// WriteCSV renders the table as RFC-4180-ish CSV (header row first; cells
// containing commas or quotes are quoted).
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
		_, err := io.WriteString(w, b.String())
		return err
	}
	if err := writeRow(t.Headers); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}
