package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/checkpoint"
	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/curve"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
	"github.com/hyperdrive-ml/hyperdrive/internal/wire"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// AgentOptions configures a node agent.
type AgentOptions struct {
	// ID names the agent (defaults to the listener address).
	ID string
	// Slots is how many jobs the agent trains concurrently.
	Slots int
	// Registry resolves workloads; nil uses the built-ins.
	Registry *workload.Registry
	// Clock drives training time; nil uses a 600x scaled clock.
	Clock clock.Clock
	// CheckpointMode models snapshot capture; 0 = Framework.
	CheckpointMode checkpoint.Mode
	// Seed seeds the capture model.
	Seed int64
	// Predictor, when non-nil, enables distributed curve prediction
	// (paper §5.2): the agent fits the learning curve locally, in
	// parallel with training, and piggybacks the latest p-value on its
	// stat reports.
	Predictor *curve.Predictor
	// Obs, when non-nil, receives agent telemetry (jobs running, stats
	// forwarded, snapshots taken, local fit metrics) plus the agent-side
	// spans of distributed traces.
	Obs *obs.Registry
	// TraceSink, when non-nil, accumulates Chrome trace events for the
	// agent's job lifecycle (one track per job).
	TraceSink *obs.TraceWriter
	// Logf receives agent diagnostics; nil discards them.
	Logf func(format string, args ...interface{})
}

// Agent is the Node Agent daemon (paper §4.2, component ⑥): it
// executes training jobs on behalf of the scheduler, forwards
// application statistics, performs local curve prediction, and
// implements suspend/resume via checkpoint images.
type Agent struct {
	opts     AgentOptions
	registry *workload.Registry
	clk      clock.Clock
	capturer *checkpoint.Capturer

	// Telemetry handles; nil-safe no-ops without a registry.
	jobsRunning *obs.Gauge
	statsTotal  *obs.Counter
	snapsTotal  *obs.Counter

	mu      sync.Mutex
	jobs    map[sched.JobID]*agentJob
	ident   string // resolved agent ID (set per connection)
	closed  bool
	closeCh chan struct{}
	wg      sync.WaitGroup

	originOnce sync.Once // namespaces the tracer's IDs once
}

// agentJob is one running job on the agent.
type agentJob struct {
	spec     wire.StartJobPayload
	decision chan DecisionReply
	stop     *stopSignal
	history  []float64
	span     *obs.Span // run span: opened at start, finished at exit

	predMu  sync.Mutex
	pval    float64
	hasPval bool
	fitting bool
}

// NewAgent builds an agent.
func NewAgent(opts AgentOptions) (*Agent, error) {
	if opts.Slots < 1 {
		return nil, fmt.Errorf("cluster: agent needs >= 1 slot, got %d", opts.Slots)
	}
	if opts.Registry == nil {
		opts.Registry = workload.NewRegistry()
	}
	if opts.Clock == nil {
		opts.Clock = clock.NewScaled(clockEpoch, 600)
	}
	mode := opts.CheckpointMode
	if mode == 0 {
		mode = checkpoint.Framework
	}
	capturer, err := checkpoint.NewCapturer(mode, opts.Seed+7)
	if err != nil {
		return nil, err
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...interface{}) {}
	}
	if opts.Predictor != nil {
		opts.Predictor.Instrument(opts.Obs)
	}
	return &Agent{
		opts:        opts,
		registry:    opts.Registry,
		clk:         opts.Clock,
		capturer:    capturer,
		jobsRunning: opts.Obs.Gauge(obs.AgentJobsRunning),
		statsTotal:  opts.Obs.Counter(obs.AgentStatsTotal),
		snapsTotal:  opts.Obs.Counter(obs.AgentSnapshotsTotal),
		jobs:        make(map[sched.JobID]*agentJob),
		closeCh:     make(chan struct{}),
	}, nil
}

// Serve accepts scheduler connections on l, one at a time, until Close
// (or a permanent accept error).
func (a *Agent) Serve(l net.Listener) error {
	for {
		nc, err := l.Accept()
		if err != nil {
			select {
			case <-a.closeCh:
				return nil
			default:
			}
			return fmt.Errorf("cluster: agent accept: %w", err)
		}
		a.serveConn(nc)
	}
}

// Close shuts the agent down, stopping all jobs.
func (a *Agent) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	close(a.closeCh)
	for _, j := range a.jobs {
		j.stop.Stop()
	}
	a.mu.Unlock()
	a.wg.Wait()
	return nil
}

// statBatchMax bounds how many stat reports accumulate before a flush
// is forced, independent of decision boundaries — a cap on both frame
// size and staleness when many jobs share one connection.
const statBatchMax = 64

// statBatcher coalesces the AppStat reports of one scheduler
// connection into MsgAppStatBatch frames. Jobs add stats as they
// finish epochs; any job about to send an ordered control frame
// (IterDone, Snapshot, JobExited) flushes first, so the scheduler
// always sees a job's statistic before the boundary it raised — the
// same per-job ordering as unbatched MsgAppStat, with one frame where
// concurrent jobs used to cost one each.
type statBatcher struct {
	conn *wire.Conn
	mu   sync.Mutex
	buf  []wire.AppStatPayload
}

func newStatBatcher(conn *wire.Conn) *statBatcher { return &statBatcher{conn: conn} }

// add buffers one stat report, flushing when the batch cap is hit.
func (b *statBatcher) add(p wire.AppStatPayload) error {
	b.mu.Lock()
	b.buf = append(b.buf, p)
	n := len(b.buf)
	b.mu.Unlock()
	if n >= statBatchMax {
		return b.flush()
	}
	return nil
}

// flush sends everything buffered: one plain MsgAppStat when a single
// report is pending (wire-compatible with pre-batch schedulers), one
// MsgAppStatBatch otherwise. The send deliberately happens under
// b.mu: a flush that returns with an empty buffer must mean every
// prior stat is already on the wire, or a concurrent job could emit
// its IterDone ahead of a batch still carrying its statistic.
func (b *statBatcher) flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch len(b.buf) {
	case 0:
		return nil
	case 1:
		p := b.buf[0]
		b.buf = b.buf[:0]
		return b.conn.SendTyped(wire.MsgAppStat, p)
	default:
		err := b.conn.SendTyped(wire.MsgAppStatBatch, wire.AppStatBatchPayload{Stats: b.buf})
		b.buf = b.buf[:0]
		return err
	}
}

// serveConn handles one scheduler session.
func (a *Agent) serveConn(nc net.Conn) {
	conn := wire.NewConn(nc)
	defer conn.Close()

	id := a.opts.ID
	if id == "" {
		id = nc.LocalAddr().String()
	}
	a.mu.Lock()
	a.ident = id
	a.mu.Unlock()
	// Namespace span/trace IDs by agent identity so IDs minted here can
	// never collide with the scheduler's (or another agent's) when the
	// spans meet in one trace.
	a.originOnce.Do(func() { a.opts.Obs.Tracer().SetOrigin("agent:" + id) })
	if err := conn.SendTyped(wire.MsgHello, wire.HelloPayload{AgentID: id, Slots: a.opts.Slots}); err != nil {
		a.opts.Logf("agent: hello: %v", err)
		return
	}
	sb := newStatBatcher(conn)

	for {
		msg, err := conn.Recv()
		if err != nil {
			// A frame from a newer protocol revision is well-framed —
			// the stream is intact, so skip it rather than kill every
			// job on this connection.
			var ute *wire.UnknownTypeError
			if errors.As(err, &ute) {
				a.opts.Logf("agent: recv: %v (frame skipped)", err)
				continue
			}
			a.opts.Logf("agent: recv: %v", err)
			a.stopAllJobs()
			return
		}
		switch msg.Type {
		case wire.MsgPing:
			// Echo the ping's sequence number so the scheduler can match
			// the pong to its pending probe and measure the RTT.
			if err := conn.Send(wire.Message{Type: wire.MsgPong, Seq: msg.Seq}); err != nil {
				return
			}
		case wire.MsgStartJob, wire.MsgResumeJob:
			var p wire.StartJobPayload
			if err := msg.Decode(&p); err != nil {
				a.sendError(conn, "", err)
				continue
			}
			if err := a.startJob(conn, sb, p); err != nil {
				a.sendError(conn, p.JobID, err)
			}
		case wire.MsgDecision:
			var p wire.DecisionPayload
			if err := msg.Decode(&p); err != nil {
				a.sendError(conn, "", err)
				continue
			}
			a.deliverDecision(p)
		case wire.MsgTerminateJob:
			var p wire.JobControlPayload
			if err := msg.Decode(&p); err != nil {
				a.sendError(conn, "", err)
				continue
			}
			a.terminateJob(sched.JobID(p.JobID))
		default:
			a.opts.Logf("agent: unexpected message %s", msg.Type)
		}
	}
}

func (a *Agent) sendError(conn *wire.Conn, jobID string, err error) {
	a.opts.Logf("agent: job %s: %v", jobID, err)
	_ = conn.SendTyped(wire.MsgError, wire.ErrorPayload{JobID: jobID, Message: err.Error()})
}

// startJob validates and launches a training loop.
func (a *Agent) startJob(conn *wire.Conn, sb *statBatcher, p wire.StartJobPayload) error {
	spec, err := a.registry.Lookup(p.Workload)
	if err != nil {
		return err
	}
	trainer := spec.New(p.Config, p.Seed)
	if len(p.Snapshot) > 0 {
		payload, err := checkpoint.Decode(p.Snapshot)
		if err != nil {
			return fmt.Errorf("resume %s: %w", p.JobID, err)
		}
		if err := trainer.Restore(payload); err != nil {
			return fmt.Errorf("resume %s: %w", p.JobID, err)
		}
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return errors.New("agent closed")
	}
	if len(a.jobs) >= a.opts.Slots {
		return fmt.Errorf("no free slot (have %d)", a.opts.Slots)
	}
	if _, dup := a.jobs[sched.JobID(p.JobID)]; dup {
		return fmt.Errorf("job %s already running", p.JobID)
	}
	j := &agentJob{
		spec:     p,
		decision: make(chan DecisionReply, 1),
		stop:     newStopSignal(),
		history:  append([]float64(nil), p.History...),
	}
	// Open the run span as a child of the scheduler-side span that
	// caused this placement; it stays open until the job leaves the
	// slot and its context is echoed on every frame the job emits.
	name := "agent_start"
	if len(p.Snapshot) > 0 {
		name = "agent_resume"
	}
	j.span = a.opts.Obs.Tracer().StartSpan(name, p.JobID, trainer.Epoch(),
		obs.SpanContext{TraceID: p.TraceID, SpanID: p.SpanID})
	j.span.SetStr("agent", a.ident)
	a.opts.Obs.Flight().JobLive(p.JobID)
	// The propagated context goes into the slice args too, so an
	// agent-side trace file can be stitched to the scheduler's by
	// trace ID / parent span.
	a.opts.TraceSink.Begin("agent "+a.ident, "job "+p.JobID, name, a.clk.Now(),
		map[string]interface{}{"epoch": trainer.Epoch(), "resume": len(p.Snapshot) > 0,
			"trace": p.TraceID, "parent_span": p.SpanID})
	a.jobs[sched.JobID(p.JobID)] = j
	a.jobsRunning.Set(float64(len(a.jobs)))
	a.wg.Add(1)
	go a.runJob(conn, sb, j, trainer, spec)
	return nil
}

func (a *Agent) deliverDecision(p wire.DecisionPayload) {
	a.mu.Lock()
	j, ok := a.jobs[sched.JobID(p.JobID)]
	a.mu.Unlock()
	if !ok {
		return
	}
	var d sched.Decision
	switch p.Decision {
	case "suspend":
		d = sched.Suspend
	case "terminate":
		d = sched.Terminate
	default:
		d = sched.Continue
	}
	dr := DecisionReply{
		Decision:   d,
		Trace:      obs.SpanContext{TraceID: p.TraceID, SpanID: p.SpanID},
		Confidence: p.Confidence,
		ERTSeconds: p.ERTSeconds,
		Class:      p.Class,
	}
	select {
	case j.decision <- dr:
	default: // stale decision; drop
	}
}

func (a *Agent) terminateJob(id sched.JobID) {
	a.mu.Lock()
	j, ok := a.jobs[id]
	a.mu.Unlock()
	if ok {
		j.stop.Stop()
	}
}

func (a *Agent) stopAllJobs() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, j := range a.jobs {
		j.stop.Stop()
	}
}

// identity returns the agent ID resolved at handshake time.
func (a *Agent) identity() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ident
}

// release frees j's slot. Only j's own entry is removed: once its exit
// frame is out, a resume of the same job ID may already hold the slot.
func (a *Agent) release(j *agentJob) {
	a.mu.Lock()
	if id := sched.JobID(j.spec.JobID); a.jobs[id] == j {
		delete(a.jobs, id)
	}
	a.jobsRunning.Set(float64(len(a.jobs)))
	a.mu.Unlock()
}

// runJob is the agent-side training loop: train an epoch, report the
// stat (with the freshest local prediction piggybacked), raise the
// iteration boundary, and act on the scheduler's decision.
func (a *Agent) runJob(conn *wire.Conn, sb *statBatcher, j *agentJob, trainer workload.Trainer, spec workload.Spec) {
	defer a.wg.Done()
	defer a.release(j) // paths that end without an exit frame
	// send carries the ordered control frames (IterDone, Snapshot,
	// JobExited); flushing the stat batcher first preserves the per-job
	// stat-before-boundary ordering the scheduler's DB relies on.
	send := func(t wire.MsgType, payload interface{}) bool {
		if err := sb.flush(); err != nil {
			a.opts.Logf("agent: flush stats before %s: %v", t, err)
			return false
		}
		if err := conn.SendTyped(t, payload); err != nil {
			a.opts.Logf("agent: send %s: %v", t, err)
			return false
		}
		return true
	}
	// runCtx is echoed on every frame this job emits, so the scheduler
	// can parent its decision spans under the agent's run span.
	runCtx := j.span.Context()
	wctx := wire.TraceContext{TraceID: runCtx.TraceID, SpanID: runCtx.SpanID}
	tracer := a.opts.Obs.Tracer()
	ident := a.identity()
	// exit closes out the job exactly once, right before its JobExited
	// frame: the slot is freed first, so a scheduler that places the
	// next job here the moment it reads the exit never finds the slot
	// still taken ("no free slot"). Then the run span finishes, its
	// spans unpin from the flight recorder, and the job's trace-event
	// slice closes.
	exit := func(reason string) {
		a.release(j)
		j.span.SetStr("exit", reason)
		tracer.Finish(j.span)
		a.opts.Obs.Flight().JobDone(j.spec.JobID)
		a.opts.TraceSink.Instant("agent "+ident, "job "+j.spec.JobID, reason, a.clk.Now(), nil)
		a.opts.TraceSink.End("agent "+ident, "job "+j.spec.JobID, a.clk.Now())
	}

	for {
		select {
		case <-j.stop.Done():
			exit("terminated")
			send(wire.MsgJobExited, wire.JobExitedPayload{JobID: j.spec.JobID, Epoch: trainer.Epoch(), Reason: "terminated", TraceContext: wctx})
			return
		default:
		}

		s, done := trainer.Step()
		a.clk.Sleep(s.Duration)
		j.history = append(j.history, s.Metric)

		stat := wire.AppStatPayload{
			JobID:    j.spec.JobID,
			Epoch:    s.Epoch,
			Metric:   s.Metric,
			Dur0nsec: int64(s.Duration),
		}
		j.predMu.Lock()
		if j.hasPval {
			stat.Predict, stat.HasPred = j.pval, true
		}
		j.predMu.Unlock()
		if err := sb.add(stat); err != nil {
			a.opts.Logf("agent: send %s: %v", wire.MsgAppStat, err)
			return
		}
		a.statsTotal.Inc()
		if done {
			exit("completed")
			send(wire.MsgJobExited, wire.JobExitedPayload{JobID: j.spec.JobID, Epoch: s.Epoch, Reason: "completed", TraceContext: wctx})
			return
		}

		// Distributed curve prediction (§5.2): kick off a fit in
		// parallel with training at every evaluation boundary.
		if a.opts.Predictor != nil && s.Epoch%spec.EvalBoundary() == 0 {
			a.maybePredict(j, spec)
		}

		if !send(wire.MsgIterDone, wire.IterDonePayload{JobID: j.spec.JobID, Epoch: s.Epoch, TraceContext: wctx}) {
			return
		}
		var dr DecisionReply
		select {
		case dr = <-j.decision:
		case <-j.stop.Done():
			exit("terminated")
			send(wire.MsgJobExited, wire.JobExitedPayload{JobID: j.spec.JobID, Epoch: s.Epoch, Reason: "terminated", TraceContext: wctx})
			return
		}
		// React as a child of the scheduler's decision span when it sent
		// one; fall back to the run span for untraced schedulers.
		parent := dr.Trace
		if !parent.Valid() {
			parent = runCtx
		}

		switch dr.Decision {
		case sched.Terminate:
			exit("terminated")
			send(wire.MsgJobExited, wire.JobExitedPayload{JobID: j.spec.JobID, Epoch: s.Epoch, Reason: "terminated", TraceContext: wctx})
			return
		case sched.Suspend:
			ssp := tracer.StartSpan("agent_suspend", j.spec.JobID, s.Epoch, parent)
			ssp.SetStr("agent", ident)
			payload, err := trainer.Snapshot()
			if err != nil {
				ssp.SetStr("error", err.Error())
				tracer.Finish(ssp)
				exit("error")
				send(wire.MsgJobExited, wire.JobExitedPayload{JobID: j.spec.JobID, Epoch: s.Epoch, Reason: "error", Error: err.Error(), TraceContext: wctx})
				return
			}
			img := a.capturer.Capture(payload)
			a.clk.Sleep(img.Latency)
			ssp.SetAttr("snapshot_bytes", float64(img.Size))
			sctx := ssp.Context()
			tracer.Finish(ssp)
			if !send(wire.MsgSnapshot, wire.SnapshotPayload{
				JobID: j.spec.JobID, Epoch: trainer.Epoch(), State: img.Encode(),
				TraceContext: wire.TraceContext{TraceID: sctx.TraceID, SpanID: sctx.SpanID},
			}) {
				return
			}
			a.snapsTotal.Inc()
			exit("suspended")
			send(wire.MsgJobExited, wire.JobExitedPayload{JobID: j.spec.JobID, Epoch: trainer.Epoch(), Reason: "suspended", TraceContext: wctx})
			return
		default: // Continue
		}
	}
}

// maybePredict starts an asynchronous curve fit unless one is already
// running, storing the resulting confidence for the next stat report
// (overlapping training and prediction, §5.2).
func (a *Agent) maybePredict(j *agentJob, spec workload.Spec) {
	j.predMu.Lock()
	if j.fitting || len(j.history) < curve.MinObservations {
		j.predMu.Unlock()
		return
	}
	j.fitting = true
	hist := append([]float64(nil), j.history...)
	j.predMu.Unlock()

	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		lo, hi := spec.MetricRange()
		norm := make([]float64, len(hist))
		for i, v := range hist {
			norm[i] = (v - lo) / (hi - lo)
		}
		target := (spec.Target() - lo) / (hi - lo)
		post, err := a.opts.Predictor.Fit(norm, spec.MaxEpoch(), int64(len(hist)))
		j.predMu.Lock()
		defer j.predMu.Unlock()
		j.fitting = false
		if err != nil {
			return
		}
		j.pval = post.ProbAtLeast(spec.MaxEpoch(), target)
		j.hasPval = true
	}()
}

// clockEpoch is the base time for default scaled clocks.
var clockEpoch = time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
