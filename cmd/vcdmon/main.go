// Command vcdmon continuously monitors an MVC1 video stream for copies of
// query videos, printing one line per detected match.
//
// Usage:
//
//	vcdmon [-delta 0.7] [-k 800] [-window 5] -q query1.mvc [-q query2.mvc ...] stream.mvc
//	... | vcdmon -q query.mvc -            # read the stream from stdin
//
// Query ids are assigned in flag order starting at 1; pass "id=path" to
// choose explicit ids (e.g. -q 7=ad.mvc). Matches are printed as:
//
//	MATCH query=<id> at=<sec> start=<sec> end=<sec> sim=<value>
//
// With -checkpoint-dir the monitor journals every frame and every
// subscription change to a write-ahead log and checkpoints its full
// matching state whenever the log has outgrown the last checkpoint and at
// the end of the stream; after a crash, rerunning with -resume restores
// that state, replays the log, and continues the stream exactly where it
// left off (replayed matches are reported with a REPLAY prefix — the
// crashed run may already have printed them).
//
// With -metrics-addr the monitor serves Prometheus metrics (GET /metrics)
// on a side listener while it runs; -slow-window budget also logs any
// basic window that processes slower than real time.
//
// With -real-time-budget the overload controller watches per-window ingest
// latency against the budget; adding -shed lets it drop low-information
// work (cheap cell-id substitution, skipped entropy decodes) under
// sustained overload and recover when the load clears. With -resync,
// corrupt or truncated streams are resynchronised instead of aborting the
// monitor. Both report what they absorbed on exit and via /metrics.
//
// Bad -q paths are logged and skipped, not fatal — the run aborts only if
// no query loads at all.
//
// With -explain every candidate-lifecycle decision is journaled and every
// MATCH line is followed by an EXPLAIN line: the per-window estimate
// trajectory that crossed δ, the combination order and signature method,
// and an exact-Jaccard audit of the reported similarity against Theorem
// 1's deviation bound. Final stderr lines count the decisions that never
// became matches (prunes, drops, expiries, near misses) and give each
// stage's p50/p99 over every timed window (the "perf:" line).
//
// The detection, durability, overload and observability flags are the
// ones vcdserve takes too (internal/cli); -resume, -q, the query-set,
// archive, -explain and -metrics-addr flags are vcdmon's.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"vdsms"
	"vdsms/internal/cli"
	"vdsms/internal/perfobs"
	"vdsms/internal/telemetry"
)

// The single-stream monitor publishes the same fleet-ready stream gauges
// as vcdserve, so one dashboard covers a lone vcdmon and a full fleet
// alike: vcd_streams_active is 1 while the monitor runs, and rejected
// counts -q specs that were skipped: unloadable, or naming an id an
// earlier spec took.
var (
	telStreamsActive = telemetry.Default.Gauge("vcd_streams_active",
		"Streams currently being monitored.")
	telStreamsRejected = telemetry.Default.Counter("vcd_streams_rejected_total",
		"Stream or query inputs rejected (bad paths, undecodable clips, duplicate ids).")
)

// queryFlags accumulates repeated -q flags.
type queryFlags []string

func (q *queryFlags) String() string     { return strings.Join(*q, ",") }
func (q *queryFlags) Set(v string) error { *q = append(*q, v); return nil }

func main() {
	var qs queryFlags
	shared := cli.Register(flag.CommandLine, "vcdmon")
	loadSet := flag.String("load-queries", "", "restore subscriptions from a saved query set")
	saveSet := flag.String("save-queries", "", "after subscribing, save the query set to this file")
	archiveDir := flag.String("archive-dir", "", "save matched stream segments as clips in this directory")
	archiveSec := flag.Float64("archive-sec", 120, "seconds of stream retained for archiving")
	resume := flag.Bool("resume", false, "restore state from -checkpoint-dir and replay the frame log before monitoring")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics on this address while monitoring (e.g. :8655)")
	explain := flag.Bool("explain", false, "trace candidate lifecycles and print an EXPLAIN line (trajectory, audit) per match, and a per-stage perf line at exit")
	flag.Var(&qs, "q", "query clip path, or id=path (repeatable)")
	flag.Parse()

	stopObs, err := shared.Start()
	if err != nil {
		fatal(err)
	}
	defer stopObs()
	defer cli.ServeMetrics("vcdmon", *metricsAddr)()

	cfg := shared.Config()
	if *resume && cfg.CheckpointDir == "" {
		fmt.Fprintln(os.Stderr, "vcdmon: -resume requires -checkpoint-dir")
		os.Exit(2)
	}

	if flag.NArg() != 1 || (len(qs) == 0 && *loadSet == "" && !*resume) {
		fmt.Fprintln(os.Stderr, "usage: vcdmon [flags] -q query.mvc ... <stream.mvc|->")
		flag.PrintDefaults()
		os.Exit(2)
	}

	if *archiveDir != "" {
		cfg.ArchiveSec = *archiveSec
	}
	if *explain {
		// Journal every lifecycle decision and exact-audit every report and
		// prune — for a one-shot CLI run the audit cost is irrelevant and
		// the per-match estimator error is what the user asked to see.
		// AuditFraction > 0 implies tracing at the default journal capacity.
		cfg.AuditFraction = 1
		cfg.StreamName = "vcdmon"
	}
	var det *vdsms.Detector
	if *resume {
		var found bool
		det, found, err = vdsms.Resume(cfg)
		if err == nil {
			if found {
				fmt.Fprintf(os.Stderr, "resumed %d queries from %s (%d matches replayed)\n",
					det.NumQueries(), cfg.CheckpointDir, len(det.Replayed))
				for _, m := range det.Replayed {
					fmt.Printf("REPLAY MATCH query=%d at=%.1fs start=%.1fs end=%.1fs sim=%.3f\n",
						m.QueryID, m.DetectedAt.Seconds(), m.Start.Seconds(), m.End.Seconds(), m.Similarity)
				}
			} else {
				fmt.Fprintf(os.Stderr, "no checkpoint in %s; starting fresh\n", cfg.CheckpointDir)
			}
		}
	} else if *loadSet != "" {
		f, err2 := os.Open(*loadSet)
		if err2 != nil {
			fatal(err2)
		}
		det, err = vdsms.LoadDetector(cfg, f)
		f.Close()
		if err == nil {
			fmt.Fprintf(os.Stderr, "restored %d queries from %s\n", det.NumQueries(), *loadSet)
		}
	} else {
		det, err = vdsms.NewDetector(cfg)
	}
	if err != nil {
		fatal(err)
	}
	stopSpans, err := shared.Observe(det)
	if err != nil {
		fatal(err)
	}
	defer stopSpans()

	_, skippedQueries := subscribeQueries(det, qs)
	if det.NumQueries() == 0 {
		fatal(fmt.Errorf("no queries could be loaded; nothing to monitor"))
	}

	if *saveSet != "" {
		f, err := os.Create(*saveSet)
		if err != nil {
			fatal(err)
		}
		if err := det.SaveQueries(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved query set to %s\n", *saveSet)
	}

	var stream io.Reader
	if flag.Arg(0) == "-" {
		stream = os.Stdin
	} else {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		stream = f
	}

	det.OnMatch = func(m vdsms.Match) {
		fmt.Printf("MATCH query=%d at=%.1fs start=%.1fs end=%.1fs sim=%.3f\n",
			m.QueryID, m.DetectedAt.Seconds(), m.Start.Seconds(), m.End.Seconds(), m.Similarity)
		if *explain {
			if rec, ok := det.MatchRecord(det.LastMatchID()); ok {
				fmt.Print(explainLine(rec))
			}
		}
	}
	if *archiveDir != "" {
		if err := os.MkdirAll(*archiveDir, 0o755); err != nil {
			fatal(err)
		}
		det.OnMatchClip = func(m vdsms.Match, clip []byte) {
			name := fmt.Sprintf("%s/match-q%d-%ds.mvc", *archiveDir, m.QueryID, int(m.DetectedAt.Seconds()))
			if err := os.WriteFile(name, clip, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "vcdmon: archiving:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "archived %s (%d bytes)\n", name, len(clip))
		}
	}
	telStreamsActive.Inc()
	_, err = det.Monitor(stream)
	telStreamsActive.Dec()
	if err != nil {
		fatal(err)
	}
	if det.CheckpointingEnabled() {
		// Leave a clean single-checkpoint handoff for the next -resume.
		if err := det.Checkpoint(); err != nil {
			fatal(err)
		}
		if err := det.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "final checkpoint written to %s\n", cfg.CheckpointDir)
	}
	st := det.Stats()
	summary := fmt.Sprintf("done: %d key frames, %d windows, %d matches, avg %.1f signatures in memory",
		st.Frames, st.Windows, st.Matches, st.AvgSignatures())
	if skippedQueries > 0 {
		// The per-path warnings scrolled past long ago on a long run; the
		// exit summary is where an operator looks first.
		summary += fmt.Sprintf(", %d query path(s) skipped", skippedQueries)
	}
	fmt.Fprintln(os.Stderr, summary)
	if cfg.RealTimeBudget > 0 || cfg.Resync {
		o := det.Overload()
		if o.Armed {
			fmt.Fprintf(os.Stderr, "overload: level %d/%d, %d/%d windows in shed mode, steady p99 %s (budget %s), shed extract=%d decode=%d\n",
				o.Level, o.MaxLevel, o.ShedWindows, o.Observed, o.RunP99, o.Budget, o.ExtractShed, o.DecodeShed)
		}
		if cfg.Resync {
			fmt.Fprintf(os.Stderr, "resync: %d corrupt frames, %d scans (%d bytes skipped), %d truncations, %d read retries\n",
				o.CorruptFrames, o.Resyncs, o.SkippedBytes, o.Truncated, o.ReadRetries)
		}
	}
	if *explain {
		fmt.Fprintln(os.Stderr, explainSummary(det))
		fmt.Fprintf(os.Stderr, "work: %d related, %d pruned, %d compared\n", st.Probed, st.Pruned, st.Compared)
		if line := perfSummary(); line != "" {
			fmt.Fprintln(os.Stderr, line)
		}
	}
}

// subscribeQueries loads the repeated -q specs ("path" or "id=path") into
// det. A bad path or an undecodable clip is logged and skipped rather than
// fatal: in a monitoring fleet one stale query file should not keep the
// remaining queries from being watched. The caller decides whether zero
// loaded queries is fatal. Returns the number of queries subscribed here
// and the number of specs skipped: a bad path, an undecodable clip, or an
// id an earlier -q spec of this run already took. An id restored by
// -resume or -load-queries is not a failure and is not counted.
func subscribeQueries(det *vdsms.Detector, qs []string) (loaded, skipped int) {
	restored := make(map[int]bool)
	for _, id := range det.QueryIDs() {
		restored[id] = true
	}
	taken := make(map[int]string)
	for i, spec := range qs {
		id := i + 1
		path := spec
		if eq := strings.IndexByte(spec, '='); eq > 0 {
			if v, err := strconv.Atoi(spec[:eq]); err == nil {
				id, path = v, spec[eq+1:]
			}
		}
		if restored[id] {
			fmt.Fprintf(os.Stderr, "query %d already subscribed (restored); skipping %s\n", id, path)
			continue
		}
		if prev, ok := taken[id]; ok {
			fmt.Fprintf(os.Stderr, "vcdmon: skipping query %d (%s): id already taken by %s\n", id, path, prev)
			skipped++
			telStreamsRejected.Inc()
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vcdmon: skipping query %d: %v\n", id, err)
			skipped++
			telStreamsRejected.Inc()
			continue
		}
		err = det.AddQuery(id, f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "vcdmon: skipping query %d (%s): %v\n", id, path, err)
			skipped++
			telStreamsRejected.Inc()
			continue
		}
		taken[id] = path
		loaded++
		fmt.Fprintf(os.Stderr, "subscribed query %d (%s)\n", id, path)
	}
	return loaded, skipped
}

// explainLine renders one match's provenance record: the per-window
// estimate trajectory that crossed δ, how the candidate was combined, and
// (always present under -explain, which audits every report) the exact
// Jaccard check against Theorem 1's bound.
func explainLine(rec vdsms.MatchRecord) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  EXPLAIN id=%d windows=%d order=%s method=%s trajectory=[",
		rec.ID, rec.Windows, rec.Order, rec.Method)
	for i, est := range rec.Trajectory {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%.3f", est)
	}
	sb.WriteString("]")
	if a := rec.Audit; a != nil {
		verdict := "ok"
		if a.Violated {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(&sb, " audit(exact=%.3f est=%.3f err=%.3f bound=%.3f %s)",
			a.Exact, a.Estimate, a.AbsError, a.Bound, verdict)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// explainSummary counts the journaled lifecycle events of this run's
// stream, giving -explain users the why-not view: prunes, drops, expiries
// and near misses that never became matches.
func explainSummary(det *vdsms.Detector) string {
	counts := map[string]int{}
	for _, ev := range det.TraceEvents(0) {
		counts[ev.Kind.String()]++
	}
	return fmt.Sprintf("events: born=%d extended=%d pruned=%d dropped=%d expired=%d reported=%d near_miss=%d",
		counts["born"], counts["extended"], counts["pruned"], counts["dropped"],
		counts["expired"], counts["reported"], counts["near_miss"])
}

// perfSummary renders the per-stage latency breakdown of every timed
// window — one "perf:" line with p50/p99 per observed stage, in pipeline
// order, read off the stage histograms. Empty when no window was timed.
func perfSummary() string {
	windows := perfobs.StageSeconds[perfobs.StageWindowTotal].Count()
	if windows == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "perf: %d windows timed", windows)
	for st, h := range perfobs.StageSeconds {
		if h.Count() == 0 {
			continue
		}
		p50 := time.Duration(h.Quantile(0.5) * float64(time.Second))
		p99 := time.Duration(h.Quantile(0.99) * float64(time.Second))
		fmt.Fprintf(&sb, ", %s p50=%s p99=%s", perfobs.Stage(st), p50.Round(time.Microsecond), p99.Round(time.Microsecond))
	}
	return sb.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vcdmon:", err)
	os.Exit(1)
}
