package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/chaos"
	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/cluster"
	"github.com/hyperdrive-ml/hyperdrive/internal/hypergen"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/param"
	"github.com/hyperdrive-ml/hyperdrive/internal/policy"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

// schedSlotPool is the mutator surface shared by the sharded pool and
// the single-lock baseline, so one workload drives both arms.
type schedSlotPool interface {
	ReserveIdleMachine() (cluster.SlotID, bool)
	ReleaseMachine(cluster.SlotID) error
	MarkOffline([]cluster.SlotID)
	MarkOnline([]cluster.SlotID)
}

// churnReport is the gated half of BENCH_sched.json: slot-pool
// throughput under reserve/release churn with agent flaps — the access
// pattern a large fleet imposes on the scheduler core. The seed pool
// pays an O(idle-slots) scan for every quarantined slot, so its cost
// explodes with fleet size; the sharded pool's indexed free-lists make
// the same transition O(1).
type churnReport struct {
	Agents        int     `json:"agents"`
	SlotsPerAgent int     `json:"slots_per_agent"`
	TotalSlots    int     `json:"total_slots"`
	OpsPerAgent   int     `json:"ops_per_agent"`
	FlapEvery     int     `json:"flap_every"`
	Workers       int     `json:"workers"`
	Shards        int     `json:"shards"`
	Arms          armSet  `json:"arms"` // unsharded | sharded, one full workload per rep
	Speedup       float64 `json:"speedup"`
	Threshold     float64 `json:"threshold"`
	Pass          bool    `json:"pass"`
}

// e2eReport is the observational half: real agents served over real
// (chaos-wrapped, zero-fault) sockets, a full Experiment scheduling
// against them, and the exact distribution of its OnIterationFinish
// latencies.
type e2eReport struct {
	Agents          int     `json:"agents"`
	SlotsPerAgent   int     `json:"slots_per_agent"`
	Jobs            int     `json:"jobs"`
	Decisions       int64   `json:"decisions"`
	WallMS          float64 `json:"wall_ms"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	P50MS           float64 `json:"p50_ms"`
	P99MS           float64 `json:"p99_ms"`
}

// schedBenchReport is the BENCH_sched.json schema.
type schedBenchReport struct {
	host
	Scale string      `json:"scale"`
	Churn churnReport `json:"churn"`
	E2E   e2eReport   `json:"e2e"`
	Pass  bool        `json:"pass"`
}

// churnWorkload drives one pool through the fleet access pattern:
// every worker owns a contiguous range of agents and, per agent,
// interleaves reserve/release churn with periodic offline/online flaps
// of that agent's slot block (the supervisor's quarantine/restore on a
// heartbeat blip). Deterministic: no RNG in the loop, so both arms see
// the identical op sequence.
func churnWorkload(p schedSlotPool, slots []cluster.SlotID, per, agentLo, agentHi, opsPerAgent, flapEvery int) {
	held := make([]cluster.SlotID, 0, 64)
	for a := agentLo; a < agentHi; a++ {
		block := slots[a*per : (a+1)*per]
		for i := 1; i <= opsPerAgent; i++ {
			if i%flapEvery == 0 {
				p.MarkOffline(block)
				p.MarkOnline(block)
				continue
			}
			if len(held) < cap(held) {
				if s, ok := p.ReserveIdleMachine(); ok {
					held = append(held, s)
					continue
				}
			}
			if len(held) > 0 {
				s := held[0]
				held = held[:copy(held, held[1:])]
				_ = p.ReleaseMachine(s)
			}
		}
	}
	for _, s := range held {
		_ = p.ReleaseMachine(s)
	}
}

// runChurn benchmarks both pool implementations under the identical
// workload (agents × opsPerAgent ops split across workers, on a fresh
// pool every rep) and gates the sharded/unsharded speedup.
func runChurn(agents, per, opsPerAgent, flapEvery int, threshold float64) (churnReport, error) {
	slots := make([]cluster.SlotID, 0, agents*per)
	for a := 0; a < agents; a++ {
		for k := 0; k < per; k++ {
			slots = append(slots, cluster.SlotID(fmt.Sprintf("agent%d#%d", a, k)))
		}
	}
	const workers, reps = 8, 3
	rep := churnReport{
		Agents: agents, SlotsPerAgent: per, TotalSlots: agents * per,
		OpsPerAgent: opsPerAgent, FlapEvery: flapEvery, Workers: workers,
		Shards:    cluster.NewResourceManager(slots).Shards(),
		Threshold: threshold,
	}
	build := map[string]func([]cluster.SlotID) schedSlotPool{
		"unsharded": func(s []cluster.SlotID) schedSlotPool { return cluster.NewUnshardedResourceManager(s) },
		"sharded":   func(s []cluster.SlotID) schedSlotPool { return cluster.NewResourceManager(s) },
	}
	chunk := (agents + workers - 1) / workers
	arms, err := measureArms([]string{"unsharded", "sharded"}, reps, func(arm string) (time.Duration, error) {
		p := build[arm](slots)
		var wg sync.WaitGroup
		t0 := time.Now()
		for lo := 0; lo < agents; lo += chunk {
			hi := min(lo+chunk, agents)
			wg.Add(1)
			go func() {
				defer wg.Done()
				churnWorkload(p, slots, per, lo, hi, opsPerAgent, flapEvery)
			}()
		}
		wg.Wait()
		return time.Since(t0), nil
	})
	if err != nil {
		return rep, err
	}
	rep.Arms = arms
	rep.Speedup = arms.ratio("unsharded", "sharded")
	rep.Pass = rep.Speedup >= rep.Threshold
	return rep, nil
}

// timedPolicy times every OnIterationFinish of the policy it wraps, so
// the e2e arm reports exact latency quantiles over its own samples
// rather than interpolating inside a histogram bucket. Unwrap keeps
// the wrapped policy visible to the experiment's instrumentation.
type timedPolicy struct {
	policy.Policy
	mu      sync.Mutex
	samples []float64 // ms
}

func (p *timedPolicy) OnIterationFinish(ctx policy.Context, ev sched.Event) sched.Decision {
	t0 := time.Now()
	d := p.Policy.OnIterationFinish(ctx, ev)
	ms := time.Since(t0).Seconds() * 1e3
	p.mu.Lock()
	p.samples = append(p.samples, ms)
	p.mu.Unlock()
	return d
}

func (p *timedPolicy) Unwrap() policy.Policy { return p.Policy }

// runE2E boots real agents behind chaos listeners (zero faults — the
// same wire path the chaos suite exercises), schedules a full
// experiment across them over TCP, and times every decision it makes.
func runE2E(agents, per, jobs int, seed int64) (e2eReport, error) {
	rep := e2eReport{Agents: agents, SlotsPerAgent: per, Jobs: jobs}
	clk := clock.NewScaled(time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC), 200000)
	events := make(chan cluster.Event, 4096)
	pol := &timedPolicy{Policy: policy.NewDefault()}

	execs := make([]cluster.Executor, 0, agents)
	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	for i := 0; i < agents; i++ {
		a, err := cluster.NewAgent(cluster.AgentOptions{
			ID: fmt.Sprintf("agent%d", i), Slots: per, Clock: clk, Seed: seed + int64(i),
		})
		if err != nil {
			return rep, err
		}
		nl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return rep, err
		}
		go a.Serve(chaos.NewListener(nl, chaos.Options{}))
		client, err := cluster.DialAgent(nl.Addr().String(), events)
		if err != nil {
			return rep, err
		}
		closers = append(closers, func() { client.Close(); a.Close(); nl.Close() })
		execs = append(execs, client)
	}
	multi, err := cluster.NewMultiExecutor(execs...)
	if err != nil {
		return rep, err
	}

	space := param.CIFAR10Space()
	rng := rand.New(rand.NewSource(seed))
	cfgs := make([]param.Config, 0, jobs)
	for i := 0; i < jobs; i++ {
		cfgs = append(cfgs, space.Sample(rng))
	}
	e, err := cluster.New(cluster.Config{
		Workload:  "cifar10",
		Generator: hypergen.NewFixed(cfgs),
		Policy:    pol,
		Executor:  multi,
		Events:    events,
		MaxJobs:   jobs,
		Clock:     clk,
		Obs:       obs.NewRegistry(),
		Seed:      seed,
	})
	if err != nil {
		return rep, err
	}
	t0 := time.Now()
	if _, err := e.Run(context.Background()); err != nil {
		return rep, err
	}
	wall := time.Since(t0)

	sort.Float64s(pol.samples)
	rep.Decisions = int64(len(pol.samples))
	rep.WallMS = wall.Seconds() * 1e3
	if wall > 0 {
		rep.DecisionsPerSec = float64(rep.Decisions) / wall.Seconds()
	}
	rep.P50MS = quantile(pol.samples, 0.5)
	rep.P99MS = quantile(pol.samples, 0.99)
	return rep, nil
}

// runSchedBench measures scheduler-core scale-out and writes
// BENCH_sched.json. The gate is the churn arm: the sharded pool must
// beat the single-lock seed by the threshold at fleet scale.
func runSchedBench(path, scale string, seed int64) error {
	full, err := scaleOf(scale)
	if err != nil {
		return err
	}
	rep := &schedBenchReport{Scale: scale}
	if full {
		// The fleet-scale claim: 1k agents, 16k slots, ≥5x.
		rep.Churn, err = runChurn(1000, 16, 96, 24, 5)
		if err == nil {
			rep.E2E, err = runE2E(64, 4, 512, seed)
		}
	} else {
		// Smoke scale for check.sh: small fleet, relaxed gate.
		rep.Churn, err = runChurn(256, 4, 48, 6, 1.5)
		if err == nil {
			rep.E2E, err = runE2E(8, 2, 32, seed)
		}
	}
	if err != nil {
		return err
	}
	rep.Pass = rep.Churn.Pass
	if err := writeReport(path, rep); err != nil {
		return err
	}
	ops := float64(rep.Churn.Agents * rep.Churn.OpsPerAgent)
	unsharded, sharded := rep.Churn.Arms.get("unsharded"), rep.Churn.Arms.get("sharded")
	fmt.Printf("slot-pool churn, %d agents x %d slots (%d shards): unsharded %.1fms (%.0f ops/s), sharded %.1fms (%.0f ops/s) — %.1fx, threshold %.1fx, pass=%v\n",
		rep.Churn.Agents, rep.Churn.SlotsPerAgent, rep.Churn.Shards,
		unsharded.MinMS, ops/unsharded.MinMS*1e3, sharded.MinMS, ops/sharded.MinMS*1e3,
		rep.Churn.Speedup, rep.Churn.Threshold, rep.Churn.Pass)
	fmt.Printf("e2e over sockets, %d agents x %d slots, %d jobs: %d decisions in %.0fms (%.0f/s), latency p50 %.4fms p99 %.4fms\n",
		rep.E2E.Agents, rep.E2E.SlotsPerAgent, rep.E2E.Jobs,
		rep.E2E.Decisions, rep.E2E.WallMS, rep.E2E.DecisionsPerSec, rep.E2E.P50MS, rep.E2E.P99MS)
	if !rep.Pass {
		return fmt.Errorf("sched bench gate failed: %.1fx < %.1fx", rep.Churn.Speedup, rep.Churn.Threshold)
	}
	return nil
}
