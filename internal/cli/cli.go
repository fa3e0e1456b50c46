// Package cli is the command-line surface vcdmon and vcdserve share: the
// detection parameters of paper Table I, durability, overload and resync,
// the slow-window budget and the performance-attribution knobs, registered
// once and bound to one vdsms.Config, plus the observability they arm: span
// sampling and the span log on the detector lineage, the process profiler
// ring and the /metrics side listener. Flags only one binary takes stay in
// its main.
package cli

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"vdsms"
	"vdsms/internal/buildinfo"
	"vdsms/internal/telemetry"
)

// Flags is the shared flag set, bound to a detector configuration.
type Flags struct {
	tool    string
	cfg     vdsms.Config
	budget  bool // -slow-window budget: one basic window, resolved by Config
	version func()

	spanSample   float64
	spanLog      string
	profileDir   string
	profileEvery time.Duration
}

// Register declares the shared flags on fs with the paper's defaults
// (vdsms.DefaultConfig). tool names the binary in -version output and in
// errors.
func Register(fs *flag.FlagSet, tool string) *Flags {
	f := &Flags{tool: tool, cfg: vdsms.DefaultConfig()}
	c := &f.cfg
	fs.Float64Var(&c.Delta, "delta", c.Delta, "similarity threshold δ")
	fs.IntVar(&c.K, "k", c.K, "number of min-hash functions")
	fs.Float64Var(&c.WindowSec, "window", c.WindowSec, "basic window (seconds)")
	fs.Float64Var(&c.KeyFPS, "keyfps", c.KeyFPS, "expected key-frame rate of monitored streams")
	fs.StringVar(&c.CheckpointDir, "checkpoint-dir", "", "journal frames and subscription changes and checkpoint matching state in this directory")
	fs.DurationVar(&c.RealTimeBudget, "real-time-budget", 0, "per-window ingest latency budget; when the p99 breaches it, the shed level rises (0 = off)")
	fs.BoolVar(&c.Shed, "shed", false, "allow the overload controller to actually shed work (without it the budget is observe-only)")
	fs.BoolVar(&c.Resync, "resync", false, "tolerate corrupt or truncated streams: resynchronise and keep monitoring instead of failing")
	fs.Func("slow-window", "log and keep every basic window slower than this: a duration, \"budget\" (one basic window) or \"off\" (default off)", f.setSlowWindow)
	fs.Float64Var(&f.spanSample, "span-sample", 0, "fraction of basic windows captured as perf spans, across all streams (0 = off, 1 = every window)")
	fs.StringVar(&f.spanLog, "span-log", "", "append sampled perf spans as JSON lines to this file (\"-\" = stderr)")
	fs.StringVar(&f.profileDir, "profile-dir", "", "capture periodic CPU+heap profiles into a bounded file ring in this directory")
	fs.DurationVar(&f.profileEvery, "profile-every", time.Minute, "interval between continuous profile captures (with -profile-dir)")
	f.version = Version(fs, tool)
	return f
}

// Config returns the detector configuration the parsed flags set, over
// vdsms.DefaultConfig.
func (f *Flags) Config() vdsms.Config {
	cfg := f.cfg
	if f.budget {
		cfg.SlowWindow = time.Duration(cfg.WindowSec * float64(time.Second))
	}
	return cfg
}

// setSlowWindow parses -slow-window.
func (f *Flags) setSlowWindow(v string) error {
	d, err := time.ParseDuration(v)
	switch {
	case v == "off", v == "budget":
		f.budget, f.cfg.SlowWindow = v == "budget", 0
	case err != nil || d < 0:
		return errors.New(`want a non-negative duration, "budget" or "off"`)
	default:
		f.budget, f.cfg.SlowWindow = false, d
	}
	return nil
}

// Start acts on the parsed flags before any work: -version prints the
// build and exits; otherwise it publishes vcd_build_info and starts the
// profiler. stop stops the profiler.
func (f *Flags) Start() (stop func(), err error) {
	f.version()
	if f.profileDir == "" {
		return func() {}, nil
	}
	prof, err := vdsms.StartProfiler(f.profileDir, f.profileEvery, 4)
	if err != nil {
		return nil, err
	}
	return prof.Stop, nil
}

// Observe arms the span flags on d's lineage: -span-sample (allocation
// attribution included) and -span-log. stop detaches and flushes the span
// log.
func (f *Flags) Observe(d *vdsms.Detector) (stop func(), err error) {
	if f.spanSample > 0 {
		d.SetSpanSampling(f.spanSample)
	}
	switch f.spanLog {
	case "":
		return func() {}, nil
	case "-":
		d.SetSpanLog(os.Stderr)
		return func() { d.SetSpanLog(nil) }, nil
	}
	file, err := os.OpenFile(f.spanLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(file)
	d.SetSpanLog(bw)
	return func() {
		d.SetSpanLog(nil)
		if err := errors.Join(bw.Flush(), file.Close()); err != nil {
			fmt.Fprintf(os.Stderr, "%s: span log: %v\n", f.tool, err)
		}
	}, nil
}

// Version declares -version on fs and returns what main calls once fs is
// parsed: with -version it prints tool's build information and exits 0;
// otherwise it publishes the vcd_build_info series.
func Version(fs *flag.FlagSet, tool string) func() {
	v := fs.Bool("version", false, "print build information and exit")
	return func() {
		if *v {
			fmt.Println(buildinfo.String(tool))
			os.Exit(0)
		}
		buildinfo.Metric()
	}
}

// ServeMetrics serves the process telemetry registry at addr/metrics in
// the background, so a long run can be scraped while it works; an empty
// addr serves nothing. stop closes the listener and waits for it.
func ServeMetrics(tool, addr string) (stop func()) {
	if addr == "" {
		return func() {}
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.Handler(telemetry.Default))
	srv := &http.Server{Addr: addr, Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "%s: metrics server: %v\n", tool, err)
		}
	}()
	return func() {
		srv.Close()
		<-done
	}
}
