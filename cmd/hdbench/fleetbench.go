package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/checkpoint"
	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/cluster"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/serve"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// fleetWorkload is one hot path of the fleet observability bench,
// measured with Obs disabled ("off") and enabled ("registry").
type fleetWorkload struct {
	Ops         int     `json:"ops"`
	Arms        armSet  `json:"arms"`
	OverheadPct float64 `json:"overhead_pct"` // registry vs off, by min
}

// fleetBenchReport is the BENCH_fleet.json schema: the cost of the
// fleet observability layer on its two hot paths. The pass criterion
// is the broker workload — every slot an experiment reserves or
// releases crosses the lease fast path the starvation detector
// instruments — while the API workload (middleware + rollup wiring on
// the HTTP surface) is reported for context.
type fleetBenchReport struct {
	host
	Scale        string        `json:"scale"`
	Broker       fleetWorkload `json:"broker_churn"`
	API          fleetWorkload `json:"api_requests"`
	OverheadPct  float64       `json:"overhead_pct"` // = broker workload
	ThresholdPct float64       `json:"threshold_pct"`
	Pass         bool          `json:"pass"`
}

// measureFleet runs one workload's off/registry arms. Each arm reports
// its own timed window so setup (registry and broker construction,
// server boot) stays outside it — that is deployment cost, not
// hot-path cost.
func measureFleet(reps, ops int, arm func(instrumented bool) (time.Duration, error)) (fleetWorkload, error) {
	w := fleetWorkload{Ops: ops}
	arms, err := measureArms([]string{"off", "registry"}, reps, func(name string) (time.Duration, error) {
		return arm(name == "registry")
	})
	if err != nil {
		return w, err
	}
	w.Arms, w.OverheadPct = arms, arms.pct("registry", "off")
	return w, nil
}

// brokerChurnArm returns the gated workload: tenants cycling slots
// through their leases (reserve to exhaustion, release everything),
// with periodic telemetry samples at the kicker cadence. With Obs
// disabled the broker skips gauge updates, starvation clock reads, and
// Sample entirely — that skip is what the gate verifies.
func brokerChurnArm(slots, tenants, leasesPer, rounds int) func(bool) (time.Duration, error) {
	// Long-lived brokers, as in a real deployment: churn runs against the
	// same pool and leases every rep, only the timed loop is measured.
	type churnArm struct {
		broker *serve.Broker
		leases []*serve.Lease
	}
	build := func(instrumented bool) churnArm {
		ids := make([]cluster.SlotID, slots)
		for i := range ids {
			ids[i] = cluster.SlotID(fmt.Sprintf("m%d:0", i))
		}
		var reg *obs.Registry
		if instrumented {
			reg = obs.NewRegistry()
		}
		b := serve.NewBroker(cluster.NewResourceManager(ids), reg, nil)
		var leases []*serve.Lease
		for t := 0; t < tenants; t++ {
			for l := 0; l < leasesPer; l++ {
				leases = append(leases, b.Join(fmt.Sprintf("tenant%d", t), float64(1+t%3)))
			}
		}
		return churnArm{broker: b, leases: leases}
	}
	arms := map[bool]churnArm{false: build(false), true: build(true)}
	return func(instrumented bool) (time.Duration, error) {
		a := arms[instrumented]
		held := make([][]cluster.SlotID, len(a.leases))
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for i, l := range a.leases {
				for {
					s, ok := l.ReserveIdleMachine()
					if !ok {
						break
					}
					held[i] = append(held[i], s)
				}
			}
			for i, l := range a.leases {
				for _, s := range held[i] {
					if err := l.ReleaseMachine(s); err != nil {
						return 0, err
					}
				}
				held[i] = held[i][:0]
			}
			// One telemetry sample per 16 churn rounds approximates the
			// kicker cadence relative to real slot-transition rates; the
			// uninstrumented broker returns immediately.
			if r%16 == 0 {
				a.broker.Sample()
			}
		}
		return time.Since(t0), nil
	}
}

// apiRequestArm returns the informational workload: the full handler
// chain (rate limiter, mux, middleware) driven in-process. With Obs
// disabled the routes are registered unwrapped.
func apiRequestArm(requests int) (func(bool) (time.Duration, error), func(), error) {
	clk := clock.NewScaled(time.Now(), 600)
	build := func(instrumented bool) (*serve.Server, func(), error) {
		events := make(chan cluster.Event, 64)
		wreg := workload.NewRegistry()
		capturer, err := checkpoint.NewCapturer(checkpoint.Framework, 1)
		if err != nil {
			return nil, nil, err
		}
		pool, err := cluster.NewWorkerPool(2, wreg, clk, capturer, events)
		if err != nil {
			return nil, nil, err
		}
		var reg *obs.Registry
		if instrumented {
			reg = obs.NewRegistry()
		}
		srv, err := serve.NewServer(serve.Options{
			Executor: pool, Events: events, Clock: clk, Registry: wreg,
			Rate: 1e9, Obs: reg,
		})
		if err != nil {
			pool.Close()
			return nil, nil, err
		}
		return srv, func() { srv.Close(); pool.Close() }, nil
	}
	// Boot both servers up front; only request serving is timed.
	handlers := map[bool]http.Handler{}
	var shutdowns []func()
	cleanup := func() {
		for _, f := range shutdowns {
			f()
		}
	}
	for _, instrumented := range []bool{false, true} {
		srv, shutdown, err := build(instrumented)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		shutdowns = append(shutdowns, shutdown)
		handlers[instrumented] = srv.Handler()
	}
	arm := func(instrumented bool) (time.Duration, error) {
		h := handlers[instrumented]
		reqList := httptest.NewRequest("GET", "/v1/experiments", nil)
		reqMiss := httptest.NewRequest("GET", "/v1/experiments/nope", nil)
		t0 := time.Now()
		for i := 0; i < requests; i++ {
			rec := httptest.NewRecorder()
			if i%4 == 3 {
				h.ServeHTTP(rec, reqMiss)
				if rec.Code != http.StatusNotFound {
					return 0, fmt.Errorf("miss: HTTP %d", rec.Code)
				}
			} else {
				h.ServeHTTP(rec, reqList)
				if rec.Code != http.StatusOK {
					return 0, fmt.Errorf("list: HTTP %d", rec.Code)
				}
			}
		}
		return time.Since(t0), nil
	}
	return arm, cleanup, nil
}

// runFleetBench measures the fleet observability layer's disabled-path
// overhead and writes the comparison to path.
func runFleetBench(path, scale string, seed int64) error {
	full, err := scaleOf(scale)
	if err != nil {
		return err
	}
	brokerReps, brokerRounds := 15, 400
	apiReps, apiRequests := 9, 4000
	threshold := 3.0
	if !full {
		// Smoke scale for check.sh: short timed windows, relaxed gate
		// (a few hundred churn rounds are too noisy to resolve 3%).
		brokerReps, brokerRounds = 5, 60
		apiReps, apiRequests = 3, 400
		threshold = 15
	}

	broker, err := measureFleet(brokerReps, brokerRounds, brokerChurnArm(64, 4, 2, brokerRounds))
	if err != nil {
		return err
	}
	apiArm, cleanup, err := apiRequestArm(apiRequests)
	if err != nil {
		return err
	}
	defer cleanup()
	api, err := measureFleet(apiReps, apiRequests, apiArm)
	if err != nil {
		return err
	}

	rep := &fleetBenchReport{
		Scale:        scale,
		Broker:       broker,
		API:          api,
		OverheadPct:  broker.OverheadPct,
		ThresholdPct: threshold,
	}
	rep.Pass = rep.OverheadPct < rep.ThresholdPct
	if err := writeReport(path, rep); err != nil {
		return err
	}
	fmt.Printf("fleet overhead, broker churn (gated): off %.2fms, registry %.2fms, overhead %+.2f%% (threshold %g%%, pass=%v)\n",
		broker.Arms.get("off").MinMS, broker.Arms.get("registry").MinMS, broker.OverheadPct, rep.ThresholdPct, rep.Pass)
	fmt.Printf("fleet overhead, api requests: off %.2fms, registry %.2fms, overhead %+.2f%%\n",
		api.Arms.get("off").MinMS, api.Arms.get("registry").MinMS, api.OverheadPct)
	if !rep.Pass {
		return fmt.Errorf("fleet observability overhead %.2f%% exceeds %g%%", rep.OverheadPct, rep.ThresholdPct)
	}
	return nil
}
