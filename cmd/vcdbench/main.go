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
	"os"
	"time"

	"vdsms/internal/cli"
	"vdsms/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 1, "workload scale factor (1 = laptop default, ~8 = paper size)")
	seed := flag.Int64("seed", 0, "workload seed (0 = default)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text tables")
	list := flag.Bool("list", false, "list available experiments and exit")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics on this address while running (e.g. :8655)")
	version := cli.Version(flag.CommandLine, "vcdbench")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: vcdbench [flags] all | <experiment>...\n\nflags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nexperiments:\n")
		printList()
	}
	flag.Parse()
	version()

	if *list {
		printList()
		return
	}
	defer cli.ServeMetrics("vcdbench", *metricsAddr)()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	var selected []experiments.Experiment
	if len(args) == 1 && args[0] == "all" {
		selected = experiments.Registry
	} else {
		for _, name := range args {
			e, err := experiments.Find(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	lab := experiments.NewLab(experiments.Options{Scale: *scale, Seed: *seed})
	for _, e := range selected {
		start := time.Now()
		tb, err := e.Run(lab)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vcdbench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Printf("# %s (%s)\n", e.Name, e.Paper)
			if err := tb.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println()
			continue
		}
		if _, err := tb.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("(%s reproduces %s; ran in %v)\n\n", e.Name, e.Paper, time.Since(start).Round(time.Millisecond))
	}
}

func printList() {
	for _, e := range experiments.Registry {
		fmt.Printf("  %-20s %s\n", e.Name, e.Paper)
	}
}
