package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/core"
	"github.com/hyperdrive-ml/hyperdrive/internal/curve"
)

// fitBenchReport is the BENCH_fit.json schema: the measured latency of
// the prediction hot path (§5.2 cut the MCMC budget 2500 -> 700 purely
// for this latency). Fit speedup compares the serial sampler against
// the half-ensemble worker pool; sweep speedup compares one boundary's
// ERT estimate issued as per-epoch ProbAtLeast calls against the
// sample-major ProbSweep batch. Both arms are bit-identical in output
// (Deterministic records the cross-check), so the ratios are pure
// latency. The >= 2x fit gate only binds on hosts with >= 4 cores:
// below that the pool has nothing to fan out over.
type fitBenchReport struct {
	host
	Config          string  `json:"config"` // MCMC budget: "paper" | "fast"
	Observations    int     `json:"observations"`
	Horizon         int     `json:"horizon"`
	ParallelWorkers int     `json:"parallel_workers"`
	Fit             armSet  `json:"fit"` // serial | parallel, one fit per rep
	FitSpeedup      float64 `json:"fit_speedup"`
	SweepEpochs     int     `json:"sweep_epochs"`
	Sweep           armSet  `json:"sweep"` // per_query | batch, one estimate per rep
	SweepSpeedup    float64 `json:"sweep_speedup"`
	Deterministic   bool    `json:"deterministic"`
	ThresholdX      float64 `json:"threshold_x"`
	Gated           bool    `json:"gated"` // cores >= 4: the threshold binds
	Pass            bool    `json:"pass"`
}

// fitBenchCurve generates the measured workload: a noisy rising
// prefix, the shape every boundary estimate fits.
func fitBenchCurve(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	y := make([]float64, n)
	for i := range y {
		x := float64(i + 1)
		y[i] = 0.1 + 0.65*(1-math.Exp(-0.04*x)) + 0.008*rng.NormFloat64()
	}
	return y
}

// runFitBench measures serial-vs-parallel fit latency and per-query vs
// batch sweep latency and writes the report to path.
func runFitBench(path, scale string, seed int64) error {
	full, err := scaleOf(scale)
	if err != nil {
		return err
	}
	rep := &fitBenchReport{Config: "paper", ThresholdX: 2}
	cfg, reps := curve.PaperConfig(), 5
	if !full {
		rep.Config, cfg, reps = "fast", curve.FastConfig(), 3
	}

	const nObs, horizon = 30, 120
	rep.Observations, rep.Horizon = nObs, horizon
	y := fitBenchCurve(nObs, seed)

	rep.ParallelWorkers = runtime.NumCPU()
	preds := map[string]*curve.Predictor{}
	for arm, workers := range map[string]int{"serial": 1, "parallel": rep.ParallelWorkers} {
		c := cfg
		c.Workers = workers
		if preds[arm], err = curve.NewPredictor(c); err != nil {
			return err
		}
	}
	// The last posterior of each arm, for the determinism cross-check.
	posts := map[string]*curve.Posterior{}
	rep.Fit, err = measureArms([]string{"serial", "parallel"}, reps, func(arm string) (time.Duration, error) {
		t0 := time.Now()
		post, err := preds[arm].Fit(y, horizon, seed)
		d := time.Since(t0)
		posts[arm] = post
		return d, err
	})
	if err != nil {
		return err
	}
	rep.FitSpeedup = rep.Fit.ratio("serial", "parallel")
	// Both arms must hold byte-identical posteriors (the parallel
	// sampler's core guarantee).
	rep.Deterministic = postsEqual(posts["serial"], posts["parallel"])

	// Sweep benchmark: one boundary's full §3.1.1 estimate, issued the
	// old way (one posterior pass per epoch) and the batch way (one
	// sample-major sweep). Typical boundary: 30 epochs observed, target
	// not yet met, generous budget so the sum runs the whole horizon.
	const target = 0.72
	post := posts["serial"]
	curEpoch := nObs
	epochDur := time.Minute
	remaining := time.Duration(horizon) * time.Hour
	rep.SweepEpochs = horizon - curEpoch
	estimates := map[string]func() core.Estimate{
		"per_query": func() core.Estimate {
			return core.EstimateERT("j", func(m int) float64 { return post.ProbAtLeast(m, target) },
				curEpoch, horizon, epochDur, remaining)
		},
		"batch": func() core.Estimate {
			return core.EstimateERTBatch("j", func(from, to int) []float64 { return post.ProbSweep(from, to, target) },
				curEpoch, horizon, epochDur, remaining)
		},
	}
	if a, b := estimates["per_query"](), estimates["batch"](); a != b {
		return fmt.Errorf("batch estimate %+v diverged from per-query estimate %+v", b, a)
	}
	rep.Sweep, err = measureArms([]string{"per_query", "batch"}, 20*reps, func(arm string) (time.Duration, error) {
		t0 := time.Now()
		estimates[arm]()
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	rep.SweepSpeedup = rep.Sweep.ratio("per_query", "batch")

	rep.Gated = runtime.NumCPU() >= 4
	rep.Pass = rep.Deterministic && (!rep.Gated || rep.FitSpeedup >= rep.ThresholdX)
	if err := writeReport(path, rep); err != nil {
		return err
	}
	fmt.Printf("mcmc fit (%s, %d obs): serial %.1fms, parallel[%d workers] %.1fms, speedup %.2fx (gate %gx on >=4 cores; %d cores, deterministic=%v)\n",
		rep.Config, nObs, rep.Fit.get("serial").MinMS, rep.ParallelWorkers, rep.Fit.get("parallel").MinMS,
		rep.FitSpeedup, rep.ThresholdX, rep.Cores, rep.Deterministic)
	fmt.Printf("ert sweep (%d epochs): per-query %.2fms, batch %.2fms, speedup %.2fx\n",
		rep.SweepEpochs, rep.Sweep.get("per_query").MinMS, rep.Sweep.get("batch").MinMS, rep.SweepSpeedup)
	if !rep.Pass {
		return fmt.Errorf("fit bench failed: speedup %.2fx below %gx on %d cores (deterministic=%v)",
			rep.FitSpeedup, rep.ThresholdX, rep.Cores, rep.Deterministic)
	}
	return nil
}

// postsEqual compares two posteriors' derived surfaces bit-for-bit
// (Float64bits, not tolerance: the determinism guarantee is exact
// equality); with the deterministic sampler any divergence means the
// worker fan-out changed results.
func postsEqual(a, b *curve.Posterior) bool {
	if a.NumSamples() != b.NumSamples() {
		return false
	}
	if math.Float64bits(a.AcceptRate()) != math.Float64bits(b.AcceptRate()) {
		return false
	}
	pa := a.ProbSweep(1, 120, 0.72)
	pb := b.ProbSweep(1, 120, 0.72)
	for k := range pa {
		if math.Float64bits(pa[k]) != math.Float64bits(pb[k]) {
			return false
		}
	}
	return true
}
