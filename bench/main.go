// Command bench is the repository's benchmark: MVC1 bytes in, matches out,
// on four workloads, with end-to-end metrics from untraced runs and
// per-layer metrics from a traced replay. See README.md in this directory
// and BENCHMARK.json at the repository root.
//
//	go run ./bench                         every workload, untraced then traced; writes bench/out/<run>/
//	go run ./bench -workload fleet-rounds  one workload, printed only
//	go run ./bench -trace 1                traced replays only (-trace 0: untraced only)
//	go run ./bench -agree a/metrics.json b/metrics.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

const defaultSeed = 20080407

func main() {
	var o options
	flag.Int64Var(&o.seed, "seed", defaultSeed, "corpus seed: the same seed gives the same bytes")
	flag.Float64Var(&o.seconds, "seconds", 25, "timed phase of each run, in seconds")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: 2 s timed phases, a third of the stream and fewer spliced queries")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for reports and scratch files")
	name := flag.String("workload", "", "run only this workload and print its result as one JSON line (default: all four)")
	trace := flag.String("trace", "", "0: untraced runs only, 1: traced replays only (default: both)")
	agree := flag.Bool("agree", false, "compare two metrics.json files (arguments) against BENCHMARK.json's bounds")
	flag.Parse()

	if *agree {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-agree takes two metrics.json files"))
		}
		ok, err := agreeFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fatal(fmt.Errorf("-trace must be 0 or 1, not %q", *trace))
	}
	if o.quick {
		o.seconds = 2
	}
	start := time.Now()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	rep, err := run(o, *name, *trace, os.Stdout)
	if err != nil {
		fatal(err)
	}

	if *name == "" {
		dir, err := rep.write(o.outDir)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("reports in %s\ntotal wall time %.1f s\n", dir, time.Since(start).Seconds())
	} else {
		line, err := json.Marshal(rep.Workloads[0].driverResult())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	for _, out := range rep.Workloads {
		if !out.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed or mismatched the reference\n",
				out.Workload, out.Failed, out.Attempted)
			os.Exit(1)
		}
	}
}

// run builds the corpus and runs the named workload (all of them when name
// is empty) untraced, traced, or both, printing each outcome to w as it
// completes.
func run(o options, name, trace string, w io.Writer) (*report, error) {
	defs := workloads
	if name != "" {
		def := findWorkload(name)
		if def == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		defs = []workloadDef{*def}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	shorts := numShorts
	if o.quick {
		shorts = quickShorts
	}
	c, err := buildCorpus(o.seed, shorts)
	if err != nil {
		return nil, err
	}
	rep := newReport(c, o)
	for i := range defs {
		out, err := runWorkload(c, &defs[i], o, trace != "1", trace != "0")
		if err != nil {
			return nil, err
		}
		out.print(w)
		rep.Workloads = append(rep.Workloads, out)
	}
	return rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
