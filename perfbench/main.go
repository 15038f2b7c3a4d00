// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed wall-clock window, checks the program's
// outputs, and prints a human-readable report followed, on the last
// line of standard output, by one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json; with -trace 1 they are the per-layer metrics, taken
// from a traced phase that wraps the benchmark's own calls into each
// layer. See README.md in this directory for every metric's definition.
//
// Usage (from the repository root):
//
//	go run ./perfbench -workload sim-pop -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// spanDir receives the span dump of a traced run, under the checkout's
// build directory.
const spanDir = ".bench_build/perfbench-spans"

// config is one benchmark invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// outDir receives the span dump of a traced run ("" skips it).
	outDir string

	// The self-test sets the rest: tiny shrinks every workload to a
	// smoke-test size; corruptDigest flips one replay digest after the
	// timed phase; liveMaxDuration overrides live-barrier's Tmax (0 keeps
	// the fixed-work guard's value).
	tiny            bool
	corruptDigest   bool
	liveMaxDuration time.Duration
}

// metric is one named, unit-carrying value of a run.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload hands back to main.
type result struct {
	attempted, failed int
	// e2e and layers are the end-to-end and per-layer metrics by name.
	e2e, layers map[string]metric
	// report lines precede the JSON line; they carry sample counts,
	// quantile ranks, and everything not gated by BENCHMARK.json.
	report []string
	// errs are failed correctness checks; any one fails the run.
	errs []string
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layers: map[string]metric{}}
}

// note appends one report line.
func (r *result) note(format string, args ...interface{}) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// check records a failed correctness check when ok is false.
func (r *result) check(ok bool, format string, args ...interface{}) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner. BENCHMARK.json
// names the gated ones and why; sim-baselines runs by hand only (see
// README.md).
var workloads = map[string]func(cfg config) (*result, error){
	"sim-pop":       runSimPop,
	"sim-baselines": runSimBaselines,
	"live-barrier":  runLiveBarrier,
	"fleet-pop":     runFleetPop,
}

// e2eNames and layerNames are the metric sets every run of the matching
// mode must print, in BENCHMARK.json order.
var e2eNames = []string{"setup_s", "op_ms"}

var layerNames = []string{
	"curve.fits", "curve.fit_ms", "curve.sweep_ms", "curve.accept_rate", "curve.busy_s",
	"core.ert_ms", "core.alloc_ms",
	"policy.decisions", "policy.fit_decisions", "policy.decision_p50_ms", "policy.decision_tail_ms",
	"policy.self_s", "policy.suspends", "policy.terminations",
	"sim.epochs", "sim.self_s", "sim.ns_per_epoch",
	"cluster.starts", "cluster.resumes", "cluster.start_ms", "cluster.decision_wait_ms",
	"cluster.event_wait_ms", "cluster.reserve_attempts", "cluster.reserve_failed",
	"cluster.idle_gap_ms", "cluster.eventlog_bytes", "cluster.eventlog_write_ms", "cluster.eventlog_dropped",
	"wire.frames_up", "wire.frames_down", "wire.bytes_up", "wire.bytes_down", "wire.write_ms",
	"wire.snapshot_frame_ms",
	"checkpoint.snapshots", "checkpoint.snapshot_bytes", "checkpoint.encode_ms", "checkpoint.decode_ms",
	"checkpoint.suspend_to_resume_ms",
	"serve.submit_ms", "serve.status_ms", "serve.events_ms", "serve.refused", "serve.starved_s",
	"serve.share_attainment", "serve.pool_busy",
	"trace.unattributed_share", "trace.overhead_share",
}

// layerUnit gives each per-layer metric's unit by its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_bytes"), strings.HasPrefix(name, "wire.bytes"):
		return "bytes"
	case strings.HasSuffix(name, "ns_per_epoch"):
		return "ns"
	case strings.HasSuffix(name, "_rate"), strings.HasSuffix(name, "_share"),
		strings.HasSuffix(name, "_attainment"), strings.HasSuffix(name, "_busy"):
		return "ratio"
	default:
		return "count"
	}
}

// e2eUnits is the unit of each end-to-end metric.
var e2eUnits = map[string]string{"setup_s": "s", "op_ms": "ms"}

func main() { os.Exit(run()) }

// run parses the command line, runs one workload and returns the exit
// code: 0 for a passing run, 1 for a failed check or error, 2 for bad
// usage.
func run() int {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run: sim-pop, sim-baselines, live-barrier, fleet-pop")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed; every input is derived from it")
	flag.Float64Var(&cfg.Seconds, "seconds", 20, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics of a traced phase")
	flag.Parse()
	cfg.outDir = spanDir
	cfg.Trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if err := checkCheckout(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ok, err := execute(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// checkCheckout refuses to run outside a repository checkout: the
// program under test is built from the module around this directory.
func checkCheckout() error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root (no go.mod here): %w", err)
	}
	return nil
}

// execute runs one workload and writes the report and JSON line to w.
// It returns false when a correctness check failed.
func execute(cfg config, w io.Writer) (bool, error) {
	run, ok := workloads[cfg.Workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return false, fmt.Errorf("unknown workload %q (have %s)", cfg.Workload, strings.Join(names, ", "))
	}
	if cfg.Seconds <= 0 {
		return false, fmt.Errorf("-seconds must be positive")
	}
	res, err := run(cfg)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v %s\n",
		cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace, provenance())
	for _, line := range res.report {
		fmt.Fprintln(w, "#", line)
	}
	names, src := e2eNames, res.e2e
	if cfg.Trace {
		names, src = layerNames, res.layers
	}
	metrics := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := src[n]
		if !ok {
			res.errs = append(res.errs, "metric "+n+" was not measured")
			continue
		}
		metrics[n] = m
	}
	for _, e := range res.errs {
		fmt.Fprintln(w, "# CHECK FAILED:", e)
	}
	correct := len(res.errs) == 0
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.attempted, res.failed, metrics})
	if err != nil {
		return false, err
	}
	fmt.Fprintln(w, string(out))
	return correct, nil
}

// provenance names the host and build a result came from.
func provenance() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}
