package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/checkpoint"
	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/cluster"
	"github.com/hyperdrive-ml/hyperdrive/internal/hypergen"
	"github.com/hyperdrive-ml/hyperdrive/internal/policy"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
	"github.com/hyperdrive-ml/hyperdrive/internal/wire"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// Live workloads run over 2 in-process node agents of 4 slots each,
// reached over loopback TCP exactly as remote agents are.
const (
	liveAgents        = 2
	liveSlotsPerAgent = 4
	// liveSpeedup is the experiment-clock compression of live-barrier.
	// It is high enough that scheduler, wire and checkpoint work, not
	// the modeled training time, dominates the wall time.
	liveSpeedup = 50000
	// liveMaxDuration is Tmax for live-barrier: far beyond the run, so
	// every job trains to completion and the wall time measures work,
	// not the budget (the fixed-work guard).
	liveMaxDuration = 10 * 365 * 24 * time.Hour
	// barrierEvery is the §4.2 barrier interval in epochs.
	barrierEvery = 10
)

// agentEnv is a set of in-process agents serving on loopback.
type agentEnv struct {
	agents []*cluster.Agent
	lns    []*countListener
	addrs  []string
	wg     sync.WaitGroup
}

// bootAgents starts n agents with the given slots on loopback.
func bootAgents(n, slots int, speedup float64, seed int64) (*agentEnv, error) {
	env := &agentEnv{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			env.close()
			return nil, fmt.Errorf("agent listen: %w", err)
		}
		cl := &countListener{Listener: ln}
		ag, err := cluster.NewAgent(cluster.AgentOptions{
			ID:    fmt.Sprintf("agent%d", i),
			Slots: slots,
			Clock: clock.NewScaled(time.Now(), speedup),
			Seed:  seed + int64(i),
		})
		if err != nil {
			ln.Close()
			env.close()
			return nil, err
		}
		env.agents = append(env.agents, ag)
		env.lns = append(env.lns, cl)
		env.addrs = append(env.addrs, ln.Addr().String())
		env.wg.Add(1)
		go func() {
			defer env.wg.Done()
			_ = ag.Serve(cl) // returns when the agent or its listener closes
		}()
	}
	return env, nil
}

// setWireStats routes the next accepted connections' byte counts to st
// (nil stops counting).
func (env *agentEnv) setWireStats(st *wireStats) {
	for _, l := range env.lns {
		l.st.Store(st)
	}
}

// close stops the agents' accept loops and waits for them to end. It
// does not call Agent.Close: that closes every job's stop channel
// unguarded, and the channels of jobs still being released are already
// closed by the connection loss that ended each experiment, so the call
// can panic. Those jobs are already stopped.
func (env *agentEnv) close() {
	for _, l := range env.lns {
		l.Close()
	}
	env.wg.Wait()
}

// dialAgents connects to every agent the way RunExperiment does:
// supervised dials feeding one events channel, under a MultiExecutor.
func dialAgents(addrs []string, events chan cluster.Event) (*cluster.MultiExecutor, error) {
	var execs []cluster.Executor
	for _, addr := range addrs {
		c, err := cluster.DialAgentSupervised(addr, events, cluster.SupervisorOptions{})
		if err != nil {
			for _, ex := range execs {
				ex.Close()
			}
			return nil, err
		}
		execs = append(execs, c)
	}
	return cluster.NewMultiExecutor(execs...)
}

// liveConfigs is how many configs one live-barrier experiment explores.
func liveConfigs(cfg config) int {
	if cfg.tiny {
		return 2
	}
	return 24
}

// liveOutcome is one live-barrier experiment.
type liveOutcome struct {
	wall                       time.Duration
	alloc                      uint64
	res                        *cluster.Result
	idle, busy, offline, total int
	pol                        *tracedPolicy
}

// liveTrace is the traced phase's shared instrumentation.
type liveTrace struct {
	tr   *tracer
	st   *clusterStats
	wire *wireStats
	logW *countWriter
	logs []*cluster.EventLog
}

// runLiveExperiment runs one barrier experiment of n CIFAR-10 configs
// through the calls RunExperiment makes for remote agents.
func runLiveExperiment(env *agentEnv, n int, seed int64, maxDur time.Duration, lt *liveTrace, req int64) (liveOutcome, error) {
	var out liveOutcome
	reg := workload.NewRegistry()
	spec, err := reg.Lookup("cifar10")
	if err != nil {
		return out, err
	}
	var pol policy.Policy
	if pol, err = policy.NewBarrier(policy.NewDefault(), barrierEvery); err != nil {
		return out, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var tr *tracer
	if lt != nil {
		tr = lt.tr
	}
	span := tr.begin("cluster", "experiment", 0, req)
	raw := make(chan cluster.Event, 256)
	events := raw
	stop := make(chan struct{})
	var relay sync.WaitGroup
	if lt != nil {
		events = make(chan cluster.Event, 256)
		relay.Add(1)
		go func() {
			defer relay.Done()
			interpose(raw, events, stop, lt.st, tr, span, req)
		}()
	}
	defer func() {
		close(stop)
		relay.Wait()
	}()
	multi, err := dialAgents(env.addrs, raw)
	if err != nil {
		return out, err
	}
	defer multi.Close()
	var exec cluster.Executor = multi
	rm := cluster.NewResourceManager(multi.Slots())
	var slots cluster.SlotPool = rm
	var tpool *tracedPool
	var log *cluster.EventLog
	if lt != nil {
		exec = &tracedExec{inner: multi, st: lt.st, tr: tr, parent: span, req: req, seen: map[sched.JobID]bool{}}
		tpool = newTracedPool(rm, multi.Slots(), lt.st)
		slots = tpool
		out.pol = newTracedPolicy(pol, tr)
		pol = out.pol
		log = cluster.NewEventLog(lt.logW)
		lt.logs = append(lt.logs, log)
	}
	exp, err := cluster.New(cluster.Config{
		Workload:       "cifar10",
		Registry:       reg,
		Generator:      hypergen.NewRandom(spec.Space(), seed, n),
		Policy:         pol,
		MaxJobs:        n,
		MaxDuration:    maxDur,
		Clock:          clock.NewScaled(time.Now(), liveSpeedup),
		CheckpointMode: checkpoint.Framework,
		CheckpointSeed: seed,
		Seed:           seed,
		Executor:       exec,
		Events:         events,
		Slots:          slots,
		EventLog:       log,
	})
	if err != nil {
		return out, err
	}
	res, err := exp.Run(context.Background())
	out.wall = time.Since(t0)
	tr.end(span)
	if tpool != nil {
		tpool.closeGaps(time.Now())
	}
	if cerr := exp.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if log != nil {
		log.Close()
	}
	runtime.ReadMemStats(&m1)
	if err != nil {
		return out, err
	}
	out.alloc = m1.TotalAlloc - m0.TotalAlloc
	out.res = res
	out.idle, out.busy, out.offline = rm.Counts()
	out.total = rm.Total()
	return out, nil
}

// checkLive applies live-barrier's correctness checks to one run.
func checkLive(res *result, o liveOutcome, n int) {
	r := o.res
	res.check(r.StoppedBy != "budget", "experiment stopped by its time budget (fixed-work guard): %d epochs done", epochsOf(r))
	res.check(r.StoppedBy == "exhausted", "experiment stopped by %q, want exhausted", r.StoppedBy)
	want := n * 120
	res.check(epochsOf(r) == want, "experiment trained %d epochs, want %d", epochsOf(r), want)
	res.check(len(r.Jobs) == n, "experiment has %d jobs, want %d", len(r.Jobs), n)
	for _, j := range r.Jobs {
		res.check(j.FinalState == sched.Completed, "job %s ended %v, want completed", j.ID, j.FinalState)
	}
	res.check(r.AgentFailures == 0 && r.Replacements == 0, "agent failures %d, replaced jobs %d", r.AgentFailures, r.Replacements)
	res.check(r.Resumes == r.Suspends, "%d resumes for %d suspends", r.Resumes, r.Suspends)
	res.check(o.idle+o.busy+o.offline == o.total, "slot pool idle %d + busy %d + offline %d != total %d", o.idle, o.busy, o.offline, o.total)
	res.check(o.busy == 0, "slot pool has %d busy slots after the experiment", o.busy)
}

func epochsOf(r *cluster.Result) int {
	n := 0
	for _, j := range r.Jobs {
		n += j.Epochs
	}
	return n
}

// slotUtil is Σ job busy time over slots × experiment duration.
func slotUtil(r *cluster.Result, slots int) float64 {
	if r.Duration <= 0 || slots == 0 {
		return 0
	}
	var busy time.Duration
	for _, j := range r.Jobs {
		busy += j.BusyTime
	}
	return float64(busy) / (float64(slots) * float64(r.Duration))
}

// livePhase runs experiments back to back until the window has passed
// (at least two).
func livePhase(env *agentEnv, cfg config, window time.Duration, lt *liveTrace, first int) ([]liveOutcome, error) {
	maxDur := time.Duration(liveMaxDuration)
	if cfg.liveMaxDuration > 0 {
		maxDur = cfg.liveMaxDuration
	}
	n := liveConfigs(cfg)
	var outs []liveOutcome
	start := time.Now()
	for i := first; len(outs) < 2 || time.Since(start) < window; i++ {
		o, err := runLiveExperiment(env, n, cfg.Seed*1000+int64(i), maxDur, lt, int64(i+1))
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	return outs, nil
}

func runLiveBarrier(cfg config) (*result, error) {
	res := newResult()
	env, cleanup, setupTimes, err := setupMedian(3, func() (*agentEnv, func(), error) {
		env, err := bootAgents(liveAgents, liveSlotsPerAgent, liveSpeedup, cfg.Seed)
		if err != nil {
			return nil, nil, err
		}
		// Warm-up: one single-config experiment end to end.
		if _, err := runLiveExperiment(env, 1, cfg.Seed, liveMaxDuration, nil, 0); err != nil {
			env.close()
			return nil, nil, err
		}
		return env, env.close, nil
	})
	defer cleanup()
	if err != nil {
		return nil, err
	}
	window := seconds(cfg.Seconds)
	if cfg.Trace {
		window /= 2
	}
	n := liveConfigs(cfg)
	outs, err := livePhase(env, cfg, window, nil, 0)
	res.attempted += len(outs)
	if err != nil {
		res.failed++
		return nil, err
	}
	var wallMs, allocMB, util, suspends samples
	for _, o := range outs {
		checkLive(res, o, n)
		wallMs.addDur(o.wall)
		allocMB.add(float64(o.alloc) / 1e6)
		util.add(slotUtil(o.res, liveAgents*liveSlotsPerAgent))
		suspends.add(float64(o.res.Suspends))
	}
	res.e2e["setup_s"] = metric{setupTimes.median(), "s"}
	res.e2e["op_ms"] = metric{wallMs.median(), "ms"}
	res.note("setup_s %s", setupTimes.describe("s"))
	res.note("op_ms = exp_wall %s per %d-config barrier experiment at %gx", wallMs.describe("ms"), n, float64(liveSpeedup))
	res.note("alloc_mb %s per experiment", allocMB.describe("MB"))
	res.note("slot_util %s", util.describe(""))
	res.note("suspends per experiment %s; experiments attempted=%d failed=%d refused=0", suspends.describe(""), res.attempted, res.failed)
	if cfg.Trace {
		if err := liveTraced(res, cfg, env, window, len(outs), wallMs.median()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// liveTraced runs the traced phase of live-barrier and fills the
// per-layer metrics and the slot-time accounting.
func liveTraced(res *result, cfg config, env *agentEnv, window time.Duration, first int, untracedMs float64) error {
	lt := &liveTrace{tr: newTracer(), st: newClusterStats(), wire: &wireStats{}}
	lt.logW = &countWriter{w: io.Discard}
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(cfg.outDir, fmt.Sprintf("eventlog-%s-%d.jsonl", cfg.Workload, cfg.Seed)))
		if err != nil {
			return err
		}
		defer f.Close()
		lt.logW.w = f
	}
	env.setWireStats(lt.wire)
	defer env.setWireStats(nil)
	n := liveConfigs(cfg)
	outs, err := livePhase(env, cfg, window, lt, first)
	res.attempted += len(outs)
	if err != nil {
		res.failed++
		return err
	}
	var wallMs samples
	var slotTime, trainWall time.Duration
	var dropped int64
	for _, o := range outs {
		checkLive(res, o, n)
		wallMs.addDur(o.wall)
		slotTime += time.Duration(o.total) * o.wall
		for _, j := range o.res.Jobs {
			trainWall += time.Duration(float64(j.BusyTime) / liveSpeedup)
		}
	}
	for _, l := range lt.logs {
		dropped += l.Dropped()
	}
	res.check(lt.st.resumeWithoutImg == 0, "%d resumes carried no snapshot", lt.st.resumeWithoutImg)
	policyLayers(res, outs)
	clusterLayers(res, lt, dropped)
	wireLayers(res, lt.wire, lt.st.images)
	checkpointLayers(res, lt.st)
	zeroLayers(res, "curve.", "core.", "sim.", "serve.")

	lt.st.mu.Lock()
	idle := lt.st.idleGapSum
	lt.st.mu.Unlock()
	slotAccount(res, lt.st, slotTime, trainWall, idle, liveSpeedup)
	overhead(res, untracedMs, wallMs.median())
	dumpSpans(res, cfg, lt.tr)
	return nil
}

// policyLayers fills the policy metrics of a live traced phase.
func policyLayers(res *result, outs []liveOutcome) {
	var decisions, suspends, terms int
	var upcall time.Duration
	for _, o := range outs {
		if o.pol == nil {
			continue
		}
		decisions += o.pol.decisions
		suspends += o.pol.suspends
		terms += o.pol.terminations
		upcall += o.pol.upcall
	}
	L := res.layers
	L["policy.decisions"] = metric{float64(decisions), "count"}
	L["policy.fit_decisions"] = metric{0, "count"}
	L["policy.decision_p50_ms"] = metric{0, "ms"}
	L["policy.decision_tail_ms"] = metric{0, "ms"}
	L["policy.self_s"] = metric{upcall.Seconds(), "s"}
	L["policy.suspends"] = metric{float64(suspends), "count"}
	L["policy.terminations"] = metric{float64(terms), "count"}
}

// clusterLayers fills the cluster metrics from the wrappers' stats.
func clusterLayers(res *result, lt *liveTrace, dropped int64) {
	st := lt.st
	st.mu.Lock()
	defer st.mu.Unlock()
	L := res.layers
	L["cluster.starts"] = metric{float64(st.starts), "count"}
	L["cluster.resumes"] = metric{float64(st.resumes), "count"}
	L["cluster.start_ms"] = metric{st.startMs.median(), "ms"}
	L["cluster.decision_wait_ms"] = metric{st.decisionWaitMs.median(), "ms"}
	L["cluster.event_wait_ms"] = metric{st.eventWaitMs.median(), "ms"}
	L["cluster.reserve_attempts"] = metric{float64(st.reserveAttempts), "count"}
	L["cluster.reserve_failed"] = metric{float64(st.reserveFailed), "count"}
	L["cluster.idle_gap_ms"] = metric{st.idleGapMs.median(), "ms"}
	var logBytes, logWriteMs float64
	var logWrites int64
	if lt.logW != nil {
		logBytes = float64(lt.logW.bytes.Load())
		logWriteMs = float64(lt.logW.writeNs.Load()) / 1e6
		logWrites = lt.logW.writes.Load()
	}
	L["cluster.eventlog_bytes"] = metric{logBytes, "bytes"}
	L["cluster.eventlog_write_ms"] = metric{logWriteMs, "ms"}
	L["cluster.eventlog_dropped"] = metric{float64(dropped), "count"}
	res.note("cluster.start_ms %s", st.startMs.describe("ms"))
	res.note("cluster.decision_wait_ms %s", st.decisionWaitMs.describe("ms"))
	res.note("cluster.event_wait_ms %s", st.eventWaitMs.describe("ms"))
	res.note("cluster.idle_gap_ms %s", st.idleGapMs.describe("ms"))
	res.note("cluster.eventlog: %d bytes in %d writes, %.3f ms writing, %d dropped", int64(logBytes), logWrites, logWriteMs, dropped)
}

// wireLayers fills the wire metrics and replays captured snapshot
// frames through the framed connection over an in-memory pipe.
func wireLayers(res *result, w *wireStats, images [][]byte) {
	L := res.layers
	L["wire.frames_up"] = metric{float64(w.framesUp.Load()), "count"}
	L["wire.frames_down"] = metric{float64(w.framesDown.Load()), "count"}
	L["wire.bytes_up"] = metric{float64(w.bytesUp.Load()), "bytes"}
	L["wire.bytes_down"] = metric{float64(w.bytesDown.Load()), "bytes"}
	L["wire.write_ms"] = metric{float64(w.writeNs.Load()) / 1e6, "ms"}
	frameMs, err := replaySnapshotFrames(images)
	res.check(err == nil, "snapshot frame replay: %v", err)
	L["wire.snapshot_frame_ms"] = metric{frameMs.median(), "ms"}
	res.note("wire: %d frames up (%d bytes), %d frames down (%d bytes), %.1f ms in %d agent-side writes",
		w.framesUp.Load(), w.bytesUp.Load(), w.framesDown.Load(), w.bytesDown.Load(), float64(w.writeNs.Load())/1e6, w.writes.Load())
	res.note("wire.snapshot_frame_ms (SendTyped+Recv over a pipe) %s", frameMs.describe("ms"))
}

// replaySnapshotFrames sends each captured image as a snapshot frame
// over net.Pipe and times send plus receive.
func replaySnapshotFrames(images [][]byte) (samples, error) {
	var out samples
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	tx, rx := wire.NewConn(a), wire.NewConn(b)
	for i, img := range images {
		t0 := time.Now()
		errc := make(chan error, 1)
		go func() {
			errc <- tx.SendTyped(wire.MsgSnapshot, wire.SnapshotPayload{JobID: fmt.Sprintf("j%d", i), Epoch: i, State: img})
		}()
		m, err := rx.Recv()
		if serr := <-errc; serr != nil {
			return out, serr
		}
		if err != nil {
			return out, err
		}
		var p wire.SnapshotPayload
		if err := m.Decode(&p); err != nil {
			return out, err
		}
		out.addDur(time.Since(t0))
		if !bytes.Equal(p.State, img) {
			return out, fmt.Errorf("snapshot frame %d came back altered", i)
		}
	}
	return out, nil
}

// checkpointLayers fills the checkpoint metrics, replaying captured
// images through Decode and Encode.
func checkpointLayers(res *result, st *clusterStats) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var enc, dec samples
	capt, err := checkpoint.NewCapturer(checkpoint.Framework, 1)
	res.check(err == nil, "capturer: %v", err)
	for _, img := range st.images {
		t0 := time.Now()
		payload, err := checkpoint.Decode(img)
		dec.addDur(time.Since(t0))
		if err != nil {
			res.check(false, "captured snapshot does not decode: %v", err)
			continue
		}
		im := capt.Capture(payload)
		t1 := time.Now()
		im.Encode()
		enc.addDur(time.Since(t1))
	}
	L := res.layers
	L["checkpoint.snapshots"] = metric{float64(st.snapshots), "count"}
	L["checkpoint.snapshot_bytes"] = metric{st.snapshotBytes.median(), "bytes"}
	L["checkpoint.encode_ms"] = metric{enc.median(), "ms"}
	L["checkpoint.decode_ms"] = metric{dec.median(), "ms"}
	L["checkpoint.suspend_to_resume_ms"] = metric{st.suspendResumeMs.median(), "ms"}
	res.note("checkpoint: %d snapshots, bytes %s; encode %s; decode %s", st.snapshots, st.snapshotBytes.describe(""), enc.describe("ms"), dec.describe("ms"))
	res.note("checkpoint.suspend_to_resume_ms %s", st.suspendResumeMs.describe("ms"))
}

// slotAccount splits slot time (slots x wall time) into training,
// decision wait, start/resume, suspend, the wire and agent loop between
// a reply and the job's next request, and idle time, and records what
// is left as trace.unattributed_share.
func slotAccount(res *result, st *clusterStats, slotTime, train, idle time.Duration, speedup float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	firstEpochs := time.Duration(st.firstEpochSim / speedup * float64(time.Second))
	startup := st.startupSum - firstEpochs
	loop := st.loopSum - (train - firstEpochs)
	rest := slotTime - (train + st.decisionWaitSum + startup + st.suspendSum + loop + idle)
	res.note("slot time %.3fs = training %.3fs + decision wait %.3fs + start/resume %.3fs + suspend %.3fs + wire/agent loop %.3fs + idle %.3fs + unattributed %.3fs (%.1f%%)",
		slotTime.Seconds(), train.Seconds(), st.decisionWaitSum.Seconds(), startup.Seconds(), st.suspendSum.Seconds(),
		loop.Seconds(), idle.Seconds(), rest.Seconds(), 100*share(rest, slotTime))
	res.layers["trace.unattributed_share"] = metric{share(rest, slotTime), "ratio"}
}

// share is part over whole (0 for an empty whole).
func share(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
