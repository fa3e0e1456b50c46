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
// matching state periodically and whenever the log has outgrown the last
// checkpoint; after a crash, rerunning with -resume restores that state,
// replays the log, and continues the stream exactly where it left off (replayed matches are reported with a
// REPLAY prefix — the crashed run may already have printed them).
//
// With -metrics-addr the monitor serves Prometheus metrics (GET /metrics)
// on a side listener while it runs; set TELEMETRY_SLOW_WINDOW=budget to
// also log any basic window that processes slower than real time.
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
// 1's deviation bound. A final stderr line counts the decisions that never
// became matches (prunes, drops, expiries, near misses).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"vdsms"
	"vdsms/internal/buildinfo"
	"vdsms/internal/perfobs"
	"vdsms/internal/telemetry"
)

// The single-stream monitor publishes the same fleet-ready stream gauges
// as vcdserve, so one dashboard covers a lone vcdmon and a full fleet
// alike: vcd_streams_active is 1 while the monitor runs, and rejected
// counts queries that were skipped as unloadable.
var (
	telStreamsActive = telemetry.Default.Gauge("vcd_streams_active",
		"Streams currently being monitored.")
	telStreamsRejected = telemetry.Default.Counter("vcd_streams_rejected_total",
		"Stream or query inputs rejected (bad paths, undecodable clips).")
)

// serveMetrics exposes the process-wide telemetry registry at
// addr/metrics in the background, so a long-running monitor can be
// scraped while it works.
func serveMetrics(tool, addr string) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.Handler(telemetry.Default))
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintf(os.Stderr, "%s: metrics server: %v\n", tool, err)
		}
	}()
}

// queryFlags accumulates repeated -q flags.
type queryFlags []string

func (q *queryFlags) String() string     { return strings.Join(*q, ",") }
func (q *queryFlags) Set(v string) error { *q = append(*q, v); return nil }

func main() {
	var qs queryFlags
	delta := flag.Float64("delta", 0.7, "similarity threshold δ")
	k := flag.Int("k", 800, "number of min-hash functions")
	window := flag.Float64("window", 5, "basic window (seconds)")
	keyFPS := flag.Float64("keyfps", 2, "expected key-frame rate of the stream")
	loadSet := flag.String("load-queries", "", "restore subscriptions from a saved query set")
	saveSet := flag.String("save-queries", "", "after subscribing, save the query set to this file")
	archiveDir := flag.String("archive-dir", "", "save matched stream segments as clips in this directory")
	archiveSec := flag.Float64("archive-sec", 120, "seconds of stream retained for archiving")
	flag.Bool("prefilter", false, "ignored: the query index reads only the posting lists of each window's winning cells (kept one release so that scripts passing it still run)")
	ckptDir := flag.String("checkpoint-dir", "", "journal frames and checkpoint matching state in this directory")
	ckptEvery := flag.Duration("checkpoint-every", 10*time.Second, "minimum interval between periodic checkpoints")
	resume := flag.Bool("resume", false, "restore state from -checkpoint-dir and replay the frame log before monitoring")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics on this address while monitoring (e.g. :8655)")
	rtBudget := flag.Duration("real-time-budget", 0, "per-window ingest latency budget; when the p99 breaches, load is shed to recover (0 = off)")
	shed := flag.Bool("shed", false, "allow the overload controller to actually shed work (without it the budget is observe-only)")
	resync := flag.Bool("resync", false, "tolerate corrupt or truncated streams: resynchronise and keep monitoring instead of erroring")
	explain := flag.Bool("explain", false, "trace candidate lifecycles and print an EXPLAIN line (trajectory, audit) per match")
	spanSample := flag.Float64("span-sample", 0, "fraction of basic windows captured as perf spans (0 = off, 1 = every window; -explain implies 1)")
	spanLog := flag.String("span-log", "", "append sampled perf spans as JSON lines to this file (\"-\" = stderr)")
	profileDir := flag.String("profile-dir", "", "capture periodic CPU+heap profiles into a bounded file ring in this directory")
	profileEvery := flag.Duration("profile-every", time.Minute, "interval between continuous profile captures (with -profile-dir)")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Var(&qs, "q", "query clip path, or id=path (repeatable)")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("vcdmon"))
		return
	}
	buildinfo.Metric()

	if *metricsAddr != "" {
		serveMetrics("vcdmon", *metricsAddr)
	}

	// -explain is a request for the full story of a run; include the
	// per-stage latency breakdown by sampling every window's span.
	if *explain && *spanSample == 0 {
		*spanSample = 1
	}
	if *spanSample > 0 {
		vdsms.SetSpanSampling(*spanSample)
		vdsms.SetAllocSampling(16)
	}
	if *spanLog != "" {
		out := io.Writer(os.Stderr)
		if *spanLog != "-" {
			f, err := os.OpenFile(*spanLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fatal(err)
			}
			bw := bufio.NewWriter(f)
			defer func() { bw.Flush(); f.Close() }()
			out = bw
		}
		vdsms.SetSpanLog(out)
	}
	if *profileDir != "" {
		prof, err := vdsms.StartProfiler(*profileDir, *profileEvery, 4)
		if err != nil {
			fatal(err)
		}
		defer prof.Stop()
	}

	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "vcdmon: -resume requires -checkpoint-dir")
		os.Exit(2)
	}

	if flag.NArg() != 1 || (len(qs) == 0 && *loadSet == "" && !*resume) {
		fmt.Fprintln(os.Stderr, "usage: vcdmon [flags] -q query.mvc ... <stream.mvc|->")
		flag.PrintDefaults()
		os.Exit(2)
	}

	cfg := vdsms.DefaultConfig()
	cfg.Delta = *delta
	cfg.K = *k
	cfg.WindowSec = *window
	cfg.KeyFPS = *keyFPS
	if *archiveDir != "" {
		cfg.ArchiveSec = *archiveSec
	}
	cfg.CheckpointDir = *ckptDir
	cfg.CheckpointEvery = *ckptEvery
	cfg.RealTimeBudget = *rtBudget
	cfg.Shed = *shed
	cfg.Resync = *resync
	if *explain {
		// Journal every lifecycle decision and exact-audit every report and
		// prune — for a one-shot CLI run the audit cost is irrelevant and
		// the per-match estimator error is what the user asked to see.
		// AuditFraction > 0 implies tracing at the default journal capacity.
		cfg.AuditFraction = 1
		cfg.StreamName = "vcdmon"
	}
	var det *vdsms.Detector
	var err error
	if *resume {
		var found bool
		det, found, err = vdsms.Resume(cfg)
		if err == nil {
			if found {
				fmt.Fprintf(os.Stderr, "resumed %d queries from %s (%d matches replayed)\n",
					det.NumQueries(), *ckptDir, len(det.Replayed))
				for _, m := range det.Replayed {
					fmt.Printf("REPLAY MATCH query=%d at=%.1fs start=%.1fs end=%.1fs sim=%.3f\n",
						m.QueryID, m.DetectedAt.Seconds(), m.Start.Seconds(), m.End.Seconds(), m.Similarity)
				}
			} else {
				fmt.Fprintf(os.Stderr, "no checkpoint in %s; starting fresh\n", *ckptDir)
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
		fmt.Fprintf(os.Stderr, "final checkpoint written to %s\n", *ckptDir)
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
	if *rtBudget > 0 || *resync {
		o := det.Overload()
		if o.Armed {
			fmt.Fprintf(os.Stderr, "overload: level %d/%d, %d/%d windows in shed mode, steady p99 %s (budget %s), shed extract=%d decode=%d\n",
				o.Level, o.MaxLevel, o.ShedWindows, o.Observed, o.RunP99, o.Budget, o.ExtractShed, o.DecodeShed)
		}
		if *resync {
			fmt.Fprintf(os.Stderr, "resync: %d corrupt frames, %d scans (%d bytes skipped), %d truncations, %d read retries\n",
				o.CorruptFrames, o.Resyncs, o.SkippedBytes, o.Truncated, o.ReadRetries)
		}
	}
	if *explain {
		fmt.Fprintln(os.Stderr, explainSummary(det))
		fmt.Fprintf(os.Stderr, "work: %d related, %d pruned, %d compared\n", st.Probed, st.Pruned, st.Compared)
	}
	if *spanSample > 0 {
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
// and the number of specs skipped as unloadable (bad path or undecodable;
// already-restored duplicates are not failures and are not counted).
func subscribeQueries(det *vdsms.Detector, qs []string) (loaded, skipped int) {
	have := make(map[int]bool)
	for _, id := range det.QueryIDs() {
		have[id] = true
	}
	for i, spec := range qs {
		id := i + 1
		path := spec
		if eq := strings.IndexByte(spec, '='); eq > 0 {
			if v, err := strconv.Atoi(spec[:eq]); err == nil {
				id, path = v, spec[eq+1:]
			}
		}
		if have[id] {
			fmt.Fprintf(os.Stderr, "query %d already subscribed (restored); skipping %s\n", id, path)
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
		have[id] = true
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

// perfSummary renders the per-stage latency breakdown of the sampled spans
// — one "perf:" line with p50/p99 per observed stage, in pipeline order.
// Empty when nothing was sampled.
func perfSummary() string {
	agg := perfobs.Default.Aggregate()
	if agg.Windows == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "perf: %d windows sampled", agg.Windows)
	for st := perfobs.Stage(0); st < perfobs.NumStages; st++ {
		if agg.Stages[st].Count == 0 {
			continue
		}
		p50 := time.Duration(agg.Quantile(st, 0.5) * float64(time.Second))
		p99 := time.Duration(agg.Quantile(st, 0.99) * float64(time.Second))
		fmt.Fprintf(&sb, ", %s p50=%s p99=%s", st, p50.Round(time.Microsecond), p99.Round(time.Microsecond))
	}
	return sb.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vcdmon:", err)
	os.Exit(1)
}
