package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	hd "github.com/hyperdrive-ml/hyperdrive"
	"github.com/hyperdrive-ml/hyperdrive/internal/core"
	"github.com/hyperdrive-ml/hyperdrive/internal/curve"
	"github.com/hyperdrive-ml/hyperdrive/internal/policy"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
	"github.com/hyperdrive-ml/hyperdrive/internal/trace"
)

// simMachines is the slot count of every replay.
const simMachines = 8

// population is one trace-collected configuration population.
type population struct {
	kind string // "cifar10" or "lunarlander"
	seed int64
	tr   *trace.Trace
	info policy.Info // for normalizing the best metric (Eq. 4)
}

// collectPopulations draws n populations of size configs, alternating
// CIFAR-10 and LunarLander, with population seeds drawn from seed.
func collectPopulations(seed int64, n, size int) ([]population, error) {
	rng := rand.New(rand.NewSource(seed))
	pops := make([]population, 0, n)
	for i := 0; i < n; i++ {
		kind := "cifar10"
		if i%2 == 1 {
			kind = "lunarlander"
		}
		ps := rng.Int63n(1 << 40)
		tr, err := hd.CollectTrace(kind, size, ps)
		if err != nil {
			return nil, err
		}
		pops = append(pops, population{kind: kind, seed: ps, tr: tr, info: policy.Info{
			MetricMin: tr.MetricMin, MetricMax: tr.MetricMax, Target: tr.Target,
		}})
	}
	return pops, nil
}

// digest is the replay-visible outcome of one replay; replays of the
// same population under the same policy must agree on all of it.
type digest struct {
	Reached      bool
	TimeToTarget time.Duration
	Duration     time.Duration
	BestJob      string
	Fits         int
	Suspends     int
	Terminations int
}

func digestOf(r *hd.SimResult) digest {
	return digest{r.Reached, r.TimeToTarget, r.Duration, r.BestJob, r.Fits, r.Suspends, r.Terminations}
}

// replayOutcome is one timed replay.
type replayOutcome struct {
	pop     int
	policy  string
	wall    time.Duration
	alloc   uint64
	epochs  int
	res     *hd.SimResult
	traced  *tracedPolicy // nil in the untraced phase
	dig     digest
	quality float64 // normalized best metric
}

// replay runs one population under one policy, optionally wrapped in
// the tracing policy.
func replay(p population, idx int, polName string, tr *tracer, traced, memstats, tiny bool) (replayOutcome, error) {
	out := replayOutcome{pop: idx, policy: polName}
	cfg := hd.SimConfig{Trace: p.tr, Policy: polName, Machines: simMachines, StopAtTarget: true}
	// POP replays are always wrapped, to time each fit-bearing decision;
	// only the traced phase records spans and captures fit inputs.
	wrap := traced || polName == "pop"
	if wrap || tiny {
		inner, err := newPolicy(polName, tiny)
		if err != nil {
			return out, err
		}
		cfg.CustomPolicy = inner
		if wrap {
			out.traced = newTracedPolicy(inner, tr)
			cfg.CustomPolicy = out.traced
		}
	}
	var m0, m1 runtime.MemStats
	if memstats {
		runtime.ReadMemStats(&m0)
	}
	var span int64
	if traced {
		// The replay span parents the policy's decision spans, so its
		// self time is the engine's share.
		span = tr.begin("sim", "RunSimulation "+polName, 0, int64(idx+1))
		out.traced.parent = span
	}
	t0 := time.Now()
	res, err := hd.RunSimulation(cfg)
	out.wall = time.Since(t0)
	tr.end(span)
	if err != nil {
		return out, fmt.Errorf("replay %s of population %d: %w", polName, idx, err)
	}
	if memstats {
		runtime.ReadMemStats(&m1)
		out.alloc = m1.TotalAlloc - m0.TotalAlloc
	}
	out.res = res
	out.dig = digestOf(res)
	for _, j := range res.Jobs {
		out.epochs += j.Epochs
	}
	out.quality = p.info.Normalize(res.Best)
	return out, nil
}

// newPolicy builds the same policy RunSimulation builds for a name,
// with the fast predictor budget (a far smaller one at tiny scale).
func newPolicy(name string, tiny bool) (policy.Policy, error) {
	switch name {
	case "pop":
		return policy.NewPOP(policy.POPOptions{Predictor: predictorFor(tiny)})
	case "bandit":
		return policy.NewBandit(policy.BanditOptions{})
	case "sha":
		return policy.NewSuccessiveHalving(policy.SHAOptions{})
	case "default":
		return policy.NewDefault(), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

// digestBook checks that every replay of a (population, policy) pair
// produces the first replay's digest.
type digestBook struct {
	first map[string]digest
	count map[string]int
}

func newDigestBook() *digestBook {
	return &digestBook{first: map[string]digest{}, count: map[string]int{}}
}

func (b *digestBook) observe(res *result, o replayOutcome, phase string) {
	key := fmt.Sprintf("%d/%s", o.pop, o.policy)
	b.count[key]++
	want, ok := b.first[key]
	if !ok {
		b.first[key] = o.dig
		return
	}
	res.check(want == o.dig, "%s replay of population %s differs: got %+v, first replay %+v", phase, key, o.dig, want)
}

// repeated counts pairs replayed more than once.
func (b *digestBook) repeated() int {
	n := 0
	for _, c := range b.count {
		if c > 1 {
			n++
		}
	}
	return n
}

// predictorFor is the MCMC budget of POP replays.
func predictorFor(tiny bool) curve.Config {
	if tiny {
		return curve.Config{Walkers: 8, Iters: 20, BurnFrac: 0.5, MaxSamples: 80, StretchA: 2, Seed: 1}
	}
	return curve.FastConfig()
}

// --- sim-pop ----------------------------------------------------------

// simScale sizes the sim workloads.
type simScale struct {
	pops, size int
}

func simPopScale(cfg config) simScale {
	if cfg.tiny {
		return simScale{pops: 2, size: 12}
	}
	return simScale{pops: 4, size: 100}
}

// simPopPhase is what one phase of sim-pop measured.
type simPopPhase struct {
	outcomes []replayOutcome
	wall     time.Duration
}

// runSimPopPhase replays populations in pool order, cycling, until the
// window has passed and both kinds have been replayed.
func runSimPopPhase(pops []population, window time.Duration, tr *tracer, traced, tiny bool, book *digestBook, res *result, phase string) (simPopPhase, error) {
	var ph simPopPhase
	start := time.Now()
	kinds := map[string]bool{}
	for i := 0; ; i++ {
		if time.Since(start) >= window && len(kinds) == 2 {
			break
		}
		idx := i % len(pops)
		o, err := replay(pops[idx], idx, "pop", tr, traced, true, tiny)
		res.attempted++
		if err != nil {
			res.failed++
			return ph, err
		}
		kinds[pops[idx].kind] = true
		book.observe(res, o, phase)
		ph.outcomes = append(ph.outcomes, o)
	}
	ph.wall = time.Since(start)
	return ph, nil
}

// perFit is a replay total per fit-bearing decision, pooled per
// workload kind, combined as the geometric mean over the kinds. Pooling
// over fits keeps the figure comparable across populations that reach
// the target after very different amounts of work.
func perFit(pops []population, outs []replayOutcome, f func(o replayOutcome) float64) float64 {
	num := map[string]float64{}
	den := map[string]float64{}
	for _, o := range outs {
		k := pops[o.pop].kind
		num[k] += f(o)
		den[k] += float64(o.res.Fits)
	}
	var vs []float64
	for k, n := range num {
		if den[k] > 0 {
			vs = append(vs, n/den[k])
		}
	}
	return geomean(vs...)
}

func runSimPop(cfg config) (*result, error) {
	res := newResult()
	sc := simPopScale(cfg)
	warm := curve.MustPredictor(predictorFor(cfg.tiny))
	pops, cleanup, setupTimes, err := setupMedian(3, func() ([]population, func(), error) {
		pops, err := collectPopulations(cfg.Seed, sc.pops, sc.size)
		if err != nil {
			return nil, nil, err
		}
		// Warm-up: one fit, so the first timed replay does not pay for
		// lazily built predictor state.
		if _, err := warm.Fit(warmCurve(), 120, cfg.Seed); err != nil {
			return nil, nil, err
		}
		return pops, func() {}, nil
	})
	defer cleanup()
	if err != nil {
		return nil, err
	}
	window := seconds(cfg.Seconds)
	if cfg.Trace {
		window /= 2
	}
	book := newDigestBook()
	un, err := runSimPopPhase(pops, window, nil, false, cfg.tiny, book, res, "untraced")
	if err != nil {
		return nil, err
	}
	var tp simPopPhase
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
		if tp, err = runSimPopPhase(pops, window, tr, true, cfg.tiny, book, res, "traced"); err != nil {
			return nil, err
		}
	}
	if book.repeated() == 0 {
		// The window was too short to replay any population twice: the
		// determinism check replays the cheapest one once more.
		cheap := un.outcomes[0]
		for _, o := range un.outcomes {
			if o.res.Fits < cheap.res.Fits {
				cheap = o
			}
		}
		o, err := replay(pops[cheap.pop], cheap.pop, "pop", nil, false, false, cfg.tiny)
		res.attempted++
		if err != nil {
			res.failed++
			return nil, err
		}
		book.observe(res, o, "check")
	}
	if cfg.corruptDigest {
		o := un.outcomes[0]
		o.dig.Fits++
		book.observe(res, o, "corrupted")
	}

	opMs := fitDecisionMedian(pops, un.outcomes)
	allocMB := perFit(pops, un.outcomes, func(o replayOutcome) float64 { return float64(o.alloc) / 1e6 })
	simE2E(res, un.outcomes, setupTimes, opMs, pops)
	res.note("op_ms = %.4g ms: median fit-bearing POP decision latency per workload kind, geometric mean of the kinds", opMs)
	for _, k := range []string{"cifar10", "lunarlander"} {
		var ms samples
		for _, o := range un.outcomes {
			if pops[o.pop].kind == k {
				ms = append(ms, o.traced.fitDecisionMs...)
			}
		}
		res.note("  %s fit-bearing decision_ms %s", k, ms.describe("ms"))
	}
	res.note("replay wall per fit-bearing decision %.4g ms (pooled per kind, geometric mean)",
		perFit(pops, un.outcomes, func(o replayOutcome) float64 { return float64(o.wall) / 1e6 }))
	res.note("alloc_mb = %.4g MB allocated per fit-bearing POP decision", allocMB)
	if cfg.Trace {
		simLayers(res, cfg, tp.outcomes, tr, predictorFor(cfg.tiny))
		overhead(res, opMs, fitDecisionMedian(pops, tp.outcomes))
	}
	return res, nil
}

// simE2E fills the metrics both sim workloads share and prints the
// replay-level report: replay times, time to target, best metric.
func simE2E(res *result, outs []replayOutcome, setupTimes samples, opMs float64, pops []population) {
	var replayMs, ttt, best, util samples
	var busy, capacity float64
	unreached := 0
	seen := map[string]bool{}
	for _, o := range outs {
		replayMs.addDur(o.wall)
		key := fmt.Sprintf("%d/%s", o.pop, o.policy)
		if seen[key] {
			continue
		}
		seen[key] = true
		u := o.res.Utilization(simMachines)
		util.add(u)
		busy += u * o.res.Duration.Hours()
		capacity += o.res.Duration.Hours()
		best.add(o.quality)
		if o.res.Reached {
			ttt.add(o.res.TimeToTarget.Hours())
		} else {
			// An unreached population counts at the end of its run.
			unreached++
			ttt.add(o.res.Duration.Hours())
		}
	}
	res.e2e["setup_s"] = metric{setupTimes.median(), "s"}
	res.e2e["op_ms"] = metric{opMs, "ms"}
	// Pooled over distinct replays: per-replay utilization sits at 1
	// for most populations, so its median would not move.
	pooled := 0.0
	if capacity > 0 {
		pooled = busy / capacity
	}
	res.note("setup_s %s", setupTimes.describe("s"))
	res.note("replay_ms %s", replayMs.describe("ms"))
	res.note("time_to_target_h %s unreached=%d of %d distinct replays", ttt.describe("h"), unreached, len(seen))
	res.note("best_metric (normalized, Eq. 4) %s", best.describe(""))
	res.note("slot_util = %.4g pooled machine busy share; per replay %s", pooled, util.describe(""))
	res.note("populations: %d (%s); replays attempted=%d failed=%d refused=0", len(pops), popSeeds(pops), res.attempted, res.failed)
}

func popSeeds(pops []population) string {
	s := ""
	for i, p := range pops {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s:%d", p.kind, p.seed)
	}
	return s
}

// overhead prints and records the tracing overhead: the traced phase's
// op_ms over the untraced phase's, minus one.
func overhead(res *result, untraced, traced float64) {
	share := 0.0
	if untraced > 0 {
		share = traced/untraced - 1
	}
	res.layers["trace.overhead_share"] = metric{share, "ratio"}
	res.note("tracing overhead: op_ms untraced=%.4g traced=%.4g (%+.1f%%)", untraced, traced, 100*share)
}

// warmCurve is a plausible rising learning curve for the warm-up fit.
func warmCurve() []float64 {
	y := make([]float64, 20)
	for i := range y {
		y[i] = 0.7 * (1 - 1/float64(i+2))
	}
	return y
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// --- curve and core replay --------------------------------------------

type coreEstimate = core.Estimate

// captureFit snapshots the inputs a fit-bearing POP decision used.
func captureFit(ctx policy.Context, job sched.JobID, pop *policy.POP, req int64) fitInput {
	info := ctx.Info()
	raw := ctx.DB().History(job)
	hist := make([]float64, len(raw))
	for i, v := range raw {
		hist[i] = info.Normalize(v)
	}
	dur, _ := ctx.DB().AvgEpochDuration(job)
	in := fitInput{
		req: req, job: job, hist: hist, maxEpoch: info.MaxEpoch,
		target: info.Normalize(info.Target), epochDur: dur,
		remaining: info.MaxDuration - ctx.Now().Sub(ctx.Start()), totalSlots: info.TotalSlots,
	}
	ests := pop.Estimates()
	for _, id := range ctx.ActiveJobs() {
		if e, ok := ests[id]; ok {
			in.ests = append(in.ests, e)
		}
	}
	return in
}

// curveCoreStats is what replaying captured decisions through the
// curve and core layers measured.
type curveCoreStats struct {
	fits                  int
	fitMs, sweepMs, ertMs samples
	allocMs               samples
	accept                samples
	curveBusy, coreBusy   time.Duration
}

// replayCurveCore runs captured decision inputs through the public
// curve and core calls a POP decision makes, timing each.
func replayCurveCore(ins []fitInput, tr *tracer, cfg curve.Config) (curveCoreStats, error) {
	var st curveCoreStats
	pred, err := curve.NewPredictor(cfg)
	if err != nil {
		return st, err
	}
	for _, in := range ins {
		if len(in.hist) < curve.MinObservations {
			continue
		}
		t0 := time.Now()
		post, err := pred.Fit(in.hist, in.maxEpoch, int64(len(in.hist))*7919+in.req)
		t1 := time.Now()
		tr.record("curve", "Predictor.Fit", 0, in.req, t0, t1)
		st.fits++
		st.fitMs.addDur(t1.Sub(t0))
		st.curveBusy += t1.Sub(t0)
		if err != nil {
			continue
		}
		st.accept.add(post.AcceptRate())
		var sweep time.Duration
		prob := func(from, to int) []float64 {
			s0 := time.Now()
			p := post.ProbSweep(from, to, in.target)
			sweep += time.Since(s0)
			return p
		}
		t2 := time.Now()
		core.EstimateERTBatch(string(in.job), prob, len(in.hist), in.maxEpoch, in.epochDur, in.remaining)
		t3 := time.Now()
		post.CredibleBand(in.maxEpoch, 0.05, 0.95)
		t4 := time.Now()
		core.AllocateSlots(in.ests, in.totalSlots, 1)
		t5 := time.Now()
		ert := tr.record("core", "EstimateERTBatch", 0, in.req, t2, t3)
		tr.record("curve", "Posterior.ProbSweep", ert, in.req, t2, t2.Add(sweep))
		tr.record("curve", "Posterior.CredibleBand", 0, in.req, t3, t4)
		tr.record("core", "AllocateSlots", 0, in.req, t4, t5)
		st.sweepMs.addDur(sweep)
		st.ertMs.addDur(t3.Sub(t2) - sweep)
		st.allocMs.addDur(t5.Sub(t4))
		st.curveBusy += sweep + t4.Sub(t3)
		st.coreBusy += t3.Sub(t2) - sweep + t5.Sub(t4)
	}
	return st, nil
}

// simLayers fills the per-layer metrics of a traced sim phase and the
// layer accounting: replay wall = sim self + policy self + curve + core.
func simLayers(res *result, cfg config, outs []replayOutcome, tr *tracer, pred curve.Config) {
	var decisions, fitDecisions, suspends, terms, epochs int
	var upcall, wall time.Duration
	var fitDecMs samples
	var ins []fitInput
	for _, o := range outs {
		p := o.traced
		decisions += p.decisions
		fitDecisions += p.fitDecisions
		suspends += p.suspends
		terms += p.terminations
		upcall += p.upcall
		wall += o.wall
		epochs += o.epochs
		fitDecMs = append(fitDecMs, p.fitDecisionMs...)
		ins = append(ins, p.captured...)
	}
	cc, err := replayCurveCore(ins, tr, pred)
	res.check(err == nil, "curve replay: %v", err)
	// The replayed curve and core time stands in for the time those
	// layers took inside the fit-bearing up-calls; the up-calls' other
	// time is the policy's own bookkeeping, the rest of the replay the
	// engine's.
	simSelf := wall - upcall
	polSelf := upcall - cc.curveBusy - cc.coreBusy
	attributed := simSelf + max(polSelf, 0) + cc.curveBusy + cc.coreBusy
	unattributed := 0.0
	if wall > 0 {
		unattributed = float64(wall-attributed) / float64(wall)
	}
	L := res.layers
	L["curve.fits"] = metric{float64(cc.fits), "count"}
	L["curve.fit_ms"] = metric{cc.fitMs.median(), "ms"}
	L["curve.sweep_ms"] = metric{cc.sweepMs.median(), "ms"}
	L["curve.accept_rate"] = metric{cc.accept.mean(), "ratio"}
	L["curve.busy_s"] = metric{cc.curveBusy.Seconds(), "s"}
	L["core.ert_ms"] = metric{cc.ertMs.median(), "ms"}
	L["core.alloc_ms"] = metric{cc.allocMs.median(), "ms"}
	L["policy.decisions"] = metric{float64(decisions), "count"}
	L["policy.fit_decisions"] = metric{float64(fitDecisions), "count"}
	L["policy.decision_p50_ms"] = metric{fitDecMs.median(), "ms"}
	L["policy.decision_tail_ms"] = metric{fitDecMs.tailOr0(), "ms"}
	L["policy.self_s"] = metric{polSelf.Seconds(), "s"}
	L["policy.suspends"] = metric{float64(suspends), "count"}
	L["policy.terminations"] = metric{float64(terms), "count"}
	L["sim.epochs"] = metric{float64(epochs), "count"}
	L["sim.self_s"] = metric{simSelf.Seconds(), "s"}
	nsPerEpoch := 0.0
	if epochs > 0 {
		nsPerEpoch = float64(simSelf.Nanoseconds()) / float64(epochs)
	}
	L["sim.ns_per_epoch"] = metric{nsPerEpoch, "ns"}
	L["trace.unattributed_share"] = metric{unattributed, "ratio"}
	zeroLayers(res, "cluster.", "wire.", "checkpoint.", "serve.")

	res.note("traced phase: %d replays, wall %.3fs = sim self %.3fs + policy self %.3fs + curve %.3fs + core %.3fs; unattributed %.2f%%",
		len(outs), wall.Seconds(), simSelf.Seconds(), polSelf.Seconds(), cc.curveBusy.Seconds(), cc.coreBusy.Seconds(), 100*unattributed)
	res.note("policy.decision_ms (fit-bearing up-calls) %s", fitDecMs.describe("ms"))
	res.note("curve.fit_ms %s; curve.sweep_ms %s", cc.fitMs.describe("ms"), cc.sweepMs.describe("ms"))
	res.note("core.ert_ms %s; core.alloc_ms %s", cc.ertMs.describe("ms"), cc.allocMs.describe("ms"))
	// Tiny-scale fits last about a millisecond, below the timing noise
	// this tolerance is sized for.
	res.check(cfg.tiny || polSelf >= -upcall/4, "layer accounting: replayed curve+core time %.3fs exceeds the up-call time %.3fs by more than a quarter",
		(cc.curveBusy + cc.coreBusy).Seconds(), upcall.Seconds())
	dumpSpans(res, cfg, tr)
}

// zeroLayers records 0 for every per-layer metric under the prefixes:
// layers the workload does not exercise.
func zeroLayers(res *result, prefixes ...string) {
	for _, n := range layerNames {
		for _, p := range prefixes {
			if len(n) >= len(p) && n[:len(p)] == p {
				if _, ok := res.layers[n]; !ok {
					res.layers[n] = metric{0, layerUnit(n)}
				}
			}
		}
	}
}

// --- sim-baselines ------------------------------------------------------

// baselinePolicies are the non-predictive policies sim-baselines replays.
var baselinePolicies = []string{"default", "bandit", "sha"}

func simBaselineScale(cfg config) simScale {
	if cfg.tiny {
		return simScale{pops: 2, size: 12}
	}
	return simScale{pops: 64, size: 100}
}

// baselinePass replays every population under every baseline policy
// once, on one worker per processor, and returns the outcomes, the pass
// wall time and its allocation. A replay is single-threaded: run alone,
// its time would follow whichever processor the scheduler left it on,
// and on a shared host those differ by more than a regression bound.
func baselinePass(pops []population, tr *tracer, traced bool) ([]replayOutcome, time.Duration, uint64, error) {
	type task struct {
		pop    int
		policy string
	}
	var tasks []task
	for i := range pops {
		for _, pol := range baselinePolicies {
			tasks = append(tasks, task{i, pol})
		}
	}
	outs := make([]replayOutcome, len(tasks))
	errs := make([]error, len(tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(tasks) {
					return
				}
				t := tasks[k]
				outs[k], errs[k] = replay(pops[t.pop], t.pop, t.policy, tr, traced, false, false)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	for _, err := range errs {
		if err != nil {
			return nil, 0, 0, err
		}
	}
	return outs, wall, m1.TotalAlloc - m0.TotalAlloc, nil
}

// baselinePhase runs whole passes until the window has passed (at
// least two, so every pair is replayed twice).
func baselinePhase(pops []population, window time.Duration, tr *tracer, traced bool, book *digestBook, res *result, phase string) (outs []replayOutcome, perKEpochMs, perKEpochMB samples, err error) {
	start := time.Now()
	for pass := 0; pass < 2 || time.Since(start) < window; pass++ {
		po, wall, alloc, err := baselinePass(pops, tr, traced)
		res.attempted += len(pops) * len(baselinePolicies)
		if err != nil {
			res.failed++
			return nil, nil, nil, err
		}
		for _, o := range po {
			book.observe(res, o, phase)
		}
		outs = append(outs, po...)
		epochs := 0
		for _, o := range po {
			epochs += o.epochs
		}
		// Per thousand replayed epochs: replays of one population take
		// from 0.1 to 10 ms, so a per-replay figure would follow the
		// populations a seed draws rather than the engine's speed.
		k := float64(epochs) / 1000
		perKEpochMs.add(float64(wall) / 1e6 / k)
		perKEpochMB.add(float64(alloc) / 1e6 / k)
	}
	return outs, perKEpochMs, perKEpochMB, nil
}

func runSimBaselines(cfg config) (*result, error) {
	res := newResult()
	sc := simBaselineScale(cfg)
	pops, cleanup, setupTimes, err := setupMedian(3, func() ([]population, func(), error) {
		pops, err := collectPopulations(cfg.Seed, sc.pops, sc.size)
		if err != nil {
			return nil, nil, err
		}
		// Warm-up: one whole pass, so the heap has grown to its working
		// size before the first timed pass.
		if _, _, _, err := baselinePass(pops, nil, false); err != nil {
			return nil, nil, err
		}
		return pops, func() {}, nil
	})
	defer cleanup()
	if err != nil {
		return nil, err
	}
	window := seconds(cfg.Seconds)
	if cfg.Trace {
		window /= 2
	}
	book := newDigestBook()
	outs, perMs, perMB, err := baselinePhase(pops, window, nil, false, book, res, "untraced")
	if err != nil {
		return nil, err
	}
	if cfg.corruptDigest {
		o := outs[0]
		o.dig.Suspends++
		book.observe(res, o, "corrupted")
	}
	opMs := perMs.median()
	simE2E(res, outs, setupTimes, opMs, pops)
	res.note("op_ms %s per 1000 replayed epochs (median over passes; %d replays per pass)", perMs.describe("ms"), len(pops)*len(baselinePolicies))
	res.note("alloc_mb %s per 1000 replayed epochs", perMB.describe("MB"))
	if cfg.Trace {
		tr := newTracer()
		touts, tMs, _, err := baselinePhase(pops, window, tr, true, book, res, "traced")
		if err != nil {
			return nil, err
		}
		simLayers(res, cfg, touts, tr, curve.FastConfig())
		overhead(res, opMs, tMs.median())
	}
	return res, nil
}

// fitDecisionMedian is the median fit-bearing decision latency per
// workload kind, combined as the geometric mean over the kinds. A
// median over a run's hundreds of decisions moves less with the
// populations a seed draws than the mean does.
func fitDecisionMedian(pops []population, outs []replayOutcome) float64 {
	by := map[string]samples{}
	for _, o := range outs {
		k := pops[o.pop].kind
		by[k] = append(by[k], o.traced.fitDecisionMs...)
	}
	var vs []float64
	for _, s := range by {
		if len(s) > 0 {
			vs = append(vs, s.median())
		}
	}
	return geomean(vs...)
}
