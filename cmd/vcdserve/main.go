// Command vcdserve runs the copy-detection HTTP service.
//
//	vcdserve [-addr :8654] [-delta 0.7] [-k 800] [-window 5] [-keyfps 2]
//	         [-checkpoint-dir state/] [-checkpoint-every 30s]
//
// Endpoints:
//
//	PUT    /queries/{id}    body: MVC1 clip   subscribe a query video
//	DELETE /queries/{id}                      unsubscribe
//	GET    /queries                           subscription count
//	POST   /streams/{name}  body: MVC1 stream monitor; matches stream back as NDJSON
//	POST   /streams         {"id": "..."}     attach a long-lived fleet stream
//	POST   /streams/{id}/frames               push an MVC1 segment to an attached stream
//	GET    /streams/{id}/stats                per-stream counters
//	DELETE /streams/{id}                      detach an attached stream
//	GET    /stats                             service counters (incl. similarity evaluations)
//	GET    /metrics                           Prometheus text exposition
//	GET    /healthz                           liveness probe
//	GET    /readyz                            readiness probe (200 once restored; 503 at max shed level)
//	POST   /snapshot                          checkpoint service state now
//	GET    /debug/events                      lifecycle event journal (arm with -trace-events)
//	GET    /debug/matches[/{id}]              match provenance (explain) records
//	GET/POST /debug/slow-window               read / retune the slow-window budget live
//	GET/POST /debug/spans                     sampled perf spans (NDJSON) / retune sampling live
//	GET    /debug/fleet/top                   slowest / most-shed / most-backpressured streams
//	/debug/pprof/*                            profiling, only with -pprof
//
// With -checkpoint-dir the service persists its subscription state: it
// restores from an existing checkpoint and the log beside it on boot, makes
// every subscription change durable with one synced log record before
// answering (a full checkpoint follows only once the log has outgrown the
// last one), checkpoints on POST /snapshot, and on SIGINT/SIGTERM drains
// in-flight streams, writes a final checkpoint and exits 0.
//
// With -real-time-budget every stream feeds one shared overload control
// loop; adding -shed lets the service drop low-information work under
// sustained overload instead of falling behind, GET /stats grows a "shed"
// block, and GET /readyz reports 503 while shedding at the maximum level
// so load balancers route new streams elsewhere. With -resync, corrupt or
// truncated uploads are resynchronised rather than failing the POST.
//
// Example session (with vcdgen-produced files):
//
//	curl -X PUT --data-binary @ad.mvc     localhost:8654/queries/1
//	curl -X POST --data-binary @feed.mvc  localhost:8654/streams/channel-4
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vdsms"
	"vdsms/internal/buildinfo"
	"vdsms/internal/server"
	"vdsms/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8654", "listen address")
	delta := flag.Float64("delta", 0.7, "similarity threshold δ")
	k := flag.Int("k", 800, "number of min-hash functions")
	window := flag.Float64("window", 5, "basic window (seconds)")
	keyFPS := flag.Float64("keyfps", 2, "expected key-frame rate of monitored streams")
	flag.Bool("prefilter", false, "ignored: the query index reads only the posting lists of each window's winning cells (kept one release so that scripts passing it still run)")
	ckptDir := flag.String("checkpoint-dir", "", "persist service state in this directory (restore on boot)")
	ckptEvery := flag.Duration("checkpoint-every", 30*time.Second, "minimum interval between periodic checkpoints")
	drain := flag.Duration("drain", 30*time.Second, "in-flight stream drain timeout on shutdown")
	rtBudget := flag.Duration("real-time-budget", 0, "per-window ingest latency budget shared by all streams; breaching p99 raises the shed level and /readyz degrades at the maximum (0 = off)")
	shed := flag.Bool("shed", false, "allow the overload controller to actually shed work (without it the budget is observe-only)")
	resync := flag.Bool("resync", false, "tolerate corrupt or truncated uploaded streams: resynchronise and keep monitoring instead of failing the POST")
	pprof := flag.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
	fleetWorkers := flag.Int("fleet-workers", 0, "workers for the attached-stream fleet pool (0 = GOMAXPROCS)")
	fleetMaxStreams := flag.Int("fleet-max-streams", 0, "admission limit for attached fleet streams (0 = unlimited)")
	fleetQueue := flag.Int("fleet-queue-windows", 0, "per-stream fleet queue budget in basic windows (0 = default 8)")
	traceEvents := flag.Int("trace-events", 0, "arm decision-provenance tracing with an event journal of this capacity (0 = off)")
	auditFraction := flag.Float64("audit-fraction", 0, "exact-audit this fraction of report/prune decisions against Theorem 1's bound (implies tracing; 0 = off)")
	traceLog := flag.Bool("trace-log", false, "emit journaled lifecycle events as structured JSON logs on stderr (requires tracing)")
	spanSample := flag.Float64("span-sample", 0, "fraction of basic windows captured as perf spans, across all streams (0 = off, 1 = every window; retune live via POST /debug/spans)")
	spanLog := flag.String("span-log", "", "append sampled perf spans as JSON lines to this file (\"-\" = stderr)")
	profileDir := flag.String("profile-dir", "", "capture periodic CPU+heap profiles into a bounded file ring in this directory")
	profileEvery := flag.Duration("profile-every", time.Minute, "interval between continuous profile captures (with -profile-dir)")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("vcdserve"))
		return
	}
	buildinfo.Metric()

	cfg := vdsms.DefaultConfig()
	cfg.Delta = *delta
	cfg.K = *k
	cfg.WindowSec = *window
	cfg.KeyFPS = *keyFPS
	cfg.CheckpointDir = *ckptDir
	cfg.CheckpointEvery = *ckptEvery
	cfg.RealTimeBudget = *rtBudget
	cfg.Shed = *shed
	cfg.Resync = *resync
	cfg.TraceEvents = *traceEvents
	cfg.AuditFraction = *auditFraction
	cfg.StreamName = "root"

	if *traceLog {
		if *traceEvents <= 0 && *auditFraction <= 0 {
			fmt.Fprintln(os.Stderr, "vcdserve: -trace-log requires -trace-events or -audit-fraction")
			os.Exit(2)
		}
		logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
		stopLog := trace.LogEvents(trace.Default, logger)
		defer stopLog()
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
				fmt.Fprintln(os.Stderr, "vcdserve:", err)
				os.Exit(1)
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
			fmt.Fprintln(os.Stderr, "vcdserve:", err)
			os.Exit(1)
		}
		defer prof.Stop()
	}

	srv, err := server.NewWithOptions(cfg, server.Options{
		EnablePprof: *pprof,
		Fleet: vdsms.FleetConfig{
			Workers:      *fleetWorkers,
			MaxStreams:   *fleetMaxStreams,
			QueueWindows: *fleetQueue,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vcdserve:", err)
		os.Exit(1)
	}
	if srv.Restored() {
		log.Printf("restored %d queries from checkpoint in %s", srv.NumQueries(), *ckptDir)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("vcdserve listening on %s (K=%d δ=%.2f w=%.0fs)", *addr, cfg.K, cfg.Delta, cfg.WindowSec)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight streams, persist.
	log.Printf("shutting down: draining in-flight streams (up to %s)", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("vcdserve: shutdown: %v", err)
	}
	if *ckptDir != "" {
		if err := srv.Checkpoint(); err != nil {
			log.Printf("vcdserve: final checkpoint: %v", err)
			os.Exit(1)
		}
		log.Printf("final checkpoint written to %s", *ckptDir)
	}
}
