// Command vcdbench regenerates the paper's tables and figures.
//
// Usage:
//
//	vcdbench [-scale N] [-seed S] all            # every experiment
//	vcdbench [-scale N] [-seed S] fig6 fig9 ...  # selected experiments
//	vcdbench -list                                # list experiments
//	vcdbench -metrics-addr :8655 all              # expose /metrics while experiments run
//	vcdbench -version                             # print build information
//
// Each experiment prints a text table whose rows are the series the paper
// plots. Scale 1 (default) runs in seconds; larger scales approach the
// paper's workload sizes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"vdsms/internal/cli"
	"vdsms/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is vcdbench on args: tables go to stdout, diagnostics to stderr, and
// the exit code comes back. Every name is resolved before any experiment
// runs.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vcdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1, "workload scale factor (1 = laptop default, ~8 = paper size)")
	seed := fs.Int64("seed", 0, "workload seed (0 = default)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text tables")
	list := fs.Bool("list", false, "list available experiments and exit")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics on this address while running (e.g. :8655)")
	version := cli.Version(fs, "vcdbench")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: vcdbench [flags] all | <experiment>...\n\nflags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nexperiments:\n")
		printList(stderr)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	version()

	if *list {
		printList(stdout)
		return 0
	}
	names := fs.Args()
	if len(names) == 0 {
		fs.Usage()
		return 2
	}
	var selected []experiments.Experiment
	if len(names) == 1 && names[0] == "all" {
		selected = experiments.Registry
	} else {
		for _, name := range names {
			e, err := experiments.Find(name)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			selected = append(selected, e)
		}
	}

	defer cli.ServeMetrics("vcdbench", *metricsAddr)()
	lab := experiments.NewLab(experiments.Options{Scale: *scale, Seed: *seed})
	for _, e := range selected {
		start := time.Now()
		tb, err := e.Run(lab)
		if err != nil {
			fmt.Fprintf(stderr, "vcdbench: %s: %v\n", e.Name, err)
			return 1
		}
		if *csv {
			fmt.Fprintf(stdout, "# %s (%s)\n", e.Name, e.Paper)
			if err := tb.WriteCSV(stdout); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintln(stdout)
			continue
		}
		if _, err := tb.WriteTo(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "(%s reproduces %s; ran in %v)\n\n", e.Name, e.Paper, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

func printList(w io.Writer) {
	for _, e := range experiments.Registry {
		fmt.Fprintf(w, "  %-20s %s\n", e.Name, e.Paper)
	}
}
