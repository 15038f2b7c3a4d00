// Command hdbench regenerates the paper's tables and figures (every
// figure of §2, §6, and §7 plus the DESIGN.md ablations), printing
// each as a text table and writing CSV series to -out.
//
//	hdbench                    # all figures, reduced scale
//	hdbench -scale full        # paper-scale populations (slow)
//	hdbench -fig fig7,fig9     # selected figures
//	hdbench -list              # list figure IDs
//
// The -*-bench flags instead measure one subsystem and write a
// BENCH_*.json report; -scale picks the committed-baseline size (full)
// or the smoke size (fast).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/figures"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hdbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hdbench", flag.ContinueOnError)
	var (
		fig   = fs.String("fig", "", "comma-separated figure IDs (default: all)")
		scale = fs.String("scale", "fast", "experiment scale: fast | full (figures: population size; benches: smoke vs committed-baseline size)")
		seed  = fs.Int64("seed", 1, "configuration sampling seed")
		out   = fs.String("out", "results", "CSV output directory (empty to disable)")
		list  = fs.Bool("list", false, "list figure IDs and exit")
		ovhJS = fs.String("overhead-bench", "", "measure the obs registry, trace export and quality audit overhead on the simulator hot path and write the report to this file (e.g. BENCH_overhead.json)")
		fitJS = fs.String("fit-bench", "", "measure serial-vs-parallel MCMC fit latency and batch-sweep speedup and write the report to this file (e.g. BENCH_fit.json)")
		schJS = fs.String("sched-bench", "", "measure scheduler-core throughput (sharded vs single-lock slot pool, e2e decision latency over sockets) and write the report to this file (e.g. BENCH_sched.json)")
		srvJS = fs.String("serve-bench", "", "measure the multi-tenant service path (submit→first-decision latency over HTTP, API throughput under the per-tenant rate limit) and write the report to this file (e.g. BENCH_serve.json)")
		fltJS = fs.String("fleet-bench", "", "measure the fleet observability layer's disabled-path overhead (broker lease churn, API request path) and write the report to this file (e.g. BENCH_fleet.json)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	benches := []struct {
		path string
		run  func(path, scale string, seed int64) error
	}{
		{*ovhJS, runOverheadBench},
		{*fitJS, runFitBench},
		{*schJS, runSchedBench},
		{*srvJS, runServeBench},
		{*fltJS, runFleetBench},
	}
	for _, b := range benches {
		if b.path != "" {
			return b.run(b.path, *scale, *seed)
		}
	}
	if *list {
		for _, id := range figures.IDs() {
			fmt.Printf("%-18s %s\n", id, figures.Describe(id))
		}
		return nil
	}

	ids := figures.IDs()
	if *fig != "" {
		ids = strings.Split(*fig, ",")
	}
	opts := figures.Options{Scale: *scale, Seed: *seed, OutDir: *out}
	for _, id := range ids {
		start := time.Now()
		rep, err := figures.Run(strings.TrimSpace(id), opts)
		if err != nil {
			return err
		}
		rep.Print(os.Stdout)
		fmt.Printf("(%s regenerated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *out != "" {
		fmt.Printf("CSV series written to %s/\n", *out)
	}
	return nil
}
