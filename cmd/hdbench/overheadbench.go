package main

import (
	"fmt"
	"io"
	"time"

	hyperdrive "github.com/hyperdrive-ml/hyperdrive"
)

// overheadArms are the simulator configurations the overhead bench
// compares: "off" (no registry — every hook on its nil no-op path),
// "registry" (the obs registry and flight recorder every run ships
// with), "export" (registry plus Chrome trace accumulation and its
// final serialization, what -trace-out costs) and "quality" (registry
// plus the search-quality audit and its JSONL export, what
// -quality-out costs).
var overheadArms = []string{"off", "registry", "export", "quality"}

// overheadScenario is one workload measured across overheadArms.
type overheadScenario struct {
	Policy      string             `json:"policy"`
	Jobs        int                `json:"jobs"`
	Machines    int                `json:"machines"`
	RunsPerRep  int                `json:"runs_per_rep"`
	Arms        armSet             `json:"arms"`
	OverheadPct map[string]float64 `json:"overhead_pct"` // min vs off, per arm
}

// overheadReport is the BENCH_overhead.json schema. The gated number
// is registry vs off on the POP scenario — the policy every simulation
// in the paper runs — by min over reps. The default-policy stress
// scenario leaves nothing but the event loop (~0.4µs/epoch), so it
// bounds per-epoch hook cost from above; it is reported, not gated,
// because its registry-vs-off reading still spreads by several percent
// from run to run on a 2-core host.
type overheadReport struct {
	host
	Scale        string           `json:"scale"`
	POP          overheadScenario `json:"pop"`
	Stress       overheadScenario `json:"stress_default"`
	OverheadPct  float64          `json:"overhead_pct"` // POP registry vs off
	ThresholdPct float64          `json:"threshold_pct"`
	Pass         bool             `json:"pass"`
}

// measureOverhead times RunSimulation under every overhead arm.
func measureOverhead(tr *hyperdrive.Trace, pol string, machines, reps, runsPerRep int) (overheadScenario, error) {
	sc := overheadScenario{Policy: pol, Jobs: len(tr.Jobs), Machines: machines, RunsPerRep: runsPerRep}
	// One long-lived registry, as in a real deployment: registry
	// construction is experiment setup, not hot-path cost.
	sharedReg := hyperdrive.NewObsRegistry()
	run := func(arm string) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < runsPerRep; i++ {
			cfg := hyperdrive.SimConfig{Trace: tr, Policy: pol, Machines: machines}
			var (
				sink *hyperdrive.TraceWriter
				qual *hyperdrive.QualityAudit
			)
			if arm != "off" {
				cfg.Obs = sharedReg
			}
			switch arm {
			case "export":
				sink = hyperdrive.NewTraceWriter()
				cfg.TraceSink = sink
			case "quality":
				qual = hyperdrive.NewQualityAudit(hyperdrive.QualityMeta{})
				cfg.Quality = qual
			}
			if _, err := hyperdrive.RunSimulation(cfg); err != nil {
				return 0, err
			}
			// Serialization is part of what -trace-out and -quality-out cost.
			if sink != nil {
				if err := sink.Export(io.Discard); err != nil {
					return 0, err
				}
			}
			if qual != nil {
				if err := qual.WriteLog(io.Discard); err != nil {
					return 0, err
				}
			}
		}
		return time.Since(t0), nil
	}
	arms, err := measureArms(overheadArms, reps, run)
	if err != nil {
		return sc, err
	}
	sc.Arms = arms
	sc.OverheadPct = map[string]float64{}
	for _, a := range overheadArms[1:] {
		sc.OverheadPct[a] = arms.pct(a, "off")
	}
	return sc, nil
}

// runOverheadBench measures what the observability stack costs the
// simulator hot path and writes BENCH_overhead.json.
func runOverheadBench(path, scale string, seed int64) error {
	full, err := scaleOf(scale)
	if err != nil {
		return err
	}
	// Full scale runs fewer POP runs in total than the three benches
	// this one replaced (36 vs 48), spent on more reps of the gated arm.
	popJobs, popReps, stressReps, stressRuns, threshold := 48, 8, 15, 6, 3.0
	if !full {
		// Smoke scale for check.sh: a smaller population and a few reps
		// cannot resolve 3%, so the gate relaxes as the fleet bench's does.
		popJobs, popReps, stressReps, stressRuns, threshold = 16, 5, 3, 2, 15
	}
	tr, err := hyperdrive.CollectTrace("cifar10", 192, seed)
	if err != nil {
		return err
	}
	popTrace := *tr
	popTrace.Jobs = tr.Jobs[:popJobs]
	pop, err := measureOverhead(&popTrace, "pop", 8, popReps, 1)
	if err != nil {
		return err
	}
	stress, err := measureOverhead(tr, "default", 8, stressReps, stressRuns)
	if err != nil {
		return err
	}

	rep := &overheadReport{
		Scale:        scale,
		POP:          pop,
		Stress:       stress,
		OverheadPct:  pop.OverheadPct["registry"],
		ThresholdPct: threshold,
	}
	rep.Pass = rep.OverheadPct < rep.ThresholdPct
	if err := writeReport(path, rep); err != nil {
		return err
	}
	for _, sc := range []overheadScenario{pop, stress} {
		fmt.Printf("overhead, %s (%d jobs x %d machines, %d reps):", sc.Policy, sc.Jobs, sc.Machines, sc.Arms[0].Reps)
		for _, a := range sc.Arms {
			fmt.Printf(" %s %.1fms (iqr %.1f)", a.Name, a.MinMS, a.IQRMS)
			if a.Name != "off" {
				fmt.Printf(" %+.2f%%", sc.OverheadPct[a.Name])
			}
		}
		fmt.Println()
	}
	fmt.Printf("gate: pop registry vs off %+.2f%% (threshold %g%%, pass=%v)\n", rep.OverheadPct, rep.ThresholdPct, rep.Pass)
	if !rep.Pass {
		return fmt.Errorf("registry overhead %.2f%% exceeds %g%%", rep.OverheadPct, rep.ThresholdPct)
	}
	return nil
}
