package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/cluster"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/policy"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

// maxKeptSpans bounds the in-memory span dump. Spans past it still
// count toward their layer's totals; only the dump stops growing.
const maxKeptSpans = 200000

// span is one timed call across a layer boundary. Req groups the spans
// of one decision or one experiment.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how the untraced phase runs the same code.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	nextID  int64
	open    map[int64]span
	kept    []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: map[int64]span{}} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(layer, name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.open[t.nextID] = span{ID: t.nextID, Parent: parent, Req: req, Layer: layer, Name: name, Start: now}
	return t.nextID
}

// end closes a span opened by begin.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	s.End = now
	t.keepLocked(s)
}

// record adds a finished span with explicit bounds (replayed work).
func (t *tracer) record(layer, name string, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.keepLocked(span{ID: t.nextID, Parent: parent, Req: req, Layer: layer, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return t.nextID
}

func (t *tracer) keepLocked(s span) {
	if len(t.kept) >= maxKeptSpans {
		t.dropped++
		return
	}
	t.kept = append(t.kept, s)
}

// selfTimes returns each layer's self time over the kept spans: span
// time minus the part of it covered by the span's children.
func (t *tracer) selfTimes() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.kept {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.kept {
		covered := coveredNs(s, children[s.ID])
		out[s.Layer] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coveredNs is the length of the union of the children's intervals
// clipped to the parent's.
func coveredNs(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// write dumps the kept spans as one JSON document.
func (t *tracer) write(dir, name string) (string, error) {
	if t == nil || dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	t.mu.Lock()
	body, err := json.Marshal(struct {
		Spans   []span `json:"spans"`
		Dropped int64  `json:"dropped"`
	}{t.kept, t.dropped})
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	return path, nil
}

// dumpSpans prints each layer's span self time and writes the spans out.
func dumpSpans(res *result, cfg config, t *tracer) {
	self := t.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	line := "span self time by layer:"
	for _, l := range layers {
		line += fmt.Sprintf(" %s=%.3fs", l, self[l].Seconds())
	}
	t.mu.Lock()
	kept, dropped := len(t.kept), t.dropped
	t.mu.Unlock()
	res.note("%s (%d spans kept, %d dropped)", line, kept, dropped)
	if path, err := t.write(cfg.outDir, fmt.Sprintf("spans-%s-%d.json", cfg.Workload, cfg.Seed)); err != nil {
		res.check(false, "%v", err)
	} else if path != "" {
		res.note("spans written to %s", path)
	}
}

// --- policy layer -----------------------------------------------------

// tracedPolicy wraps a policy's three up-calls. It forwards Unwrap and
// Fits so engines that look through wrappers still find the policy's
// fit counter, and it captures the inputs of every fit-bearing decision
// for the curve and core replay.
type tracedPolicy struct {
	inner policy.Policy
	fits  policy.FitCounter // nil for policies that never fit
	pop   *policy.POP       // nil unless inner is POP
	tr    *tracer
	// parent is the span of the replay or experiment the up-calls
	// belong to.
	parent int64

	decisions, fitDecisions int
	suspends, terminations  int
	upcall                  time.Duration
	fitDecisionMs           samples
	captured                []fitInput
}

// fitInput is what one fit-bearing POP decision computed from.
type fitInput struct {
	req        int64
	job        sched.JobID
	hist       []float64 // normalized metric history
	maxEpoch   int
	target     float64 // normalized
	epochDur   time.Duration
	remaining  time.Duration
	totalSlots int
	ests       []coreEstimate
}

func newTracedPolicy(inner policy.Policy, tr *tracer) *tracedPolicy {
	p := &tracedPolicy{inner: inner, tr: tr}
	p.fits, _ = inner.(policy.FitCounter)
	p.pop, _ = inner.(*policy.POP)
	return p
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

// Unwrap exposes the wrapped policy to engines that walk wrappers.
func (p *tracedPolicy) Unwrap() policy.Policy { return p.inner }

// Fits forwards the wrapped policy's fit counter (nil reads as zero).
func (p *tracedPolicy) Fits() *obs.Counter {
	if p.fits == nil {
		return nil
	}
	return p.fits.Fits()
}

func (p *tracedPolicy) AllocateJobs(ctx policy.Context) {
	t0 := time.Now()
	p.inner.AllocateJobs(ctx)
	p.upcall += time.Since(t0)
}

func (p *tracedPolicy) ApplicationStat(ctx policy.Context, ev sched.Event) {
	t0 := time.Now()
	p.inner.ApplicationStat(ctx, ev)
	p.upcall += time.Since(t0)
}

func (p *tracedPolicy) OnIterationFinish(ctx policy.Context, ev sched.Event) sched.Decision {
	before := p.Fits().Value()
	t0 := time.Now()
	d := p.inner.OnIterationFinish(ctx, ev)
	t1 := time.Now()
	p.upcall += t1.Sub(t0)
	p.decisions++
	switch d {
	case sched.Suspend:
		p.suspends++
	case sched.Terminate:
		p.terminations++
	case sched.Continue:
	}
	if p.Fits().Value() == before {
		return d
	}
	// Only fit-bearing decisions become spans: they are the ones whose
	// cost the curve and core replay explains, and the rest would
	// swamp memory at sub-microsecond rates.
	p.fitDecisions++
	p.fitDecisionMs.addDur(t1.Sub(t0))
	if p.tr == nil {
		return d
	}
	req := int64(len(p.captured) + 1)
	p.tr.record("policy", "OnIterationFinish", p.parent, req, t0, t1)
	if p.pop != nil {
		p.captured = append(p.captured, captureFit(ctx, ev.Job, p.pop, req))
	}
	return d
}

// --- wire layer -------------------------------------------------------

// wireStats counts the bytes and frames crossing agent connections.
type wireStats struct {
	framesUp, framesDown atomic.Int64
	bytesUp, bytesDown   atomic.Int64
	writeNs              atomic.Int64
	writes               atomic.Int64
}

// frameCounter counts complete wire frames (4-byte big-endian length,
// then the body) in one direction of a byte stream.
type frameCounter struct {
	hdr  [4]byte
	hdrN int
	left uint32
}

// feed consumes b and returns how many frames it completed.
func (f *frameCounter) feed(b []byte) int64 {
	var n int64
	for len(b) > 0 {
		if f.left > 0 {
			k := uint32(len(b))
			if k > f.left {
				k = f.left
			}
			f.left -= k
			b = b[k:]
			if f.left == 0 {
				n++
			}
			continue
		}
		f.hdr[f.hdrN] = b[0]
		f.hdrN++
		b = b[1:]
		if f.hdrN == 4 {
			f.hdrN = 0
			f.left = uint32(f.hdr[0])<<24 | uint32(f.hdr[1])<<16 | uint32(f.hdr[2])<<8 | uint32(f.hdr[3])
			if f.left == 0 {
				n++
			}
		}
	}
	return n
}

// countConn is the agent side of a scheduler connection: its writes
// are frames up to the scheduler, its reads frames down to the agent.
type countConn struct {
	net.Conn
	st       *wireStats
	up, down frameCounter
}

func (c *countConn) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(b)
	c.st.writeNs.Add(int64(time.Since(t0)))
	c.st.writes.Add(1)
	c.st.bytesUp.Add(int64(n))
	c.st.framesUp.Add(c.up.feed(b[:n]))
	return n, err
}

func (c *countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.st.bytesDown.Add(int64(n))
	c.st.framesDown.Add(c.down.feed(b[:n]))
	return n, err
}

// countListener wraps every accepted connection in a countConn. The
// stats pointer is swapped per phase; a nil pointer passes conns through.
type countListener struct {
	net.Listener
	st atomic.Pointer[wireStats]
}

func (l *countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if st := l.st.Load(); st != nil {
		return &countConn{Conn: c, st: st}, nil
	}
	return c, nil
}

// --- cluster layer ----------------------------------------------------

// clusterStats is what the executor, slot-pool, and event-channel
// wrappers measure.
type clusterStats struct {
	mu               sync.Mutex
	starts, resumes  int
	startMs          samples
	decisionWaitMs   samples
	eventWaitMs      samples
	reserveAttempts  int
	reserveFailed    int
	idleGapMs        samples
	suspendResumeMs  samples
	trainSimSeconds  float64 // Σ epoch durations on the experiment clock
	snapshots        int
	snapshotBytes    samples
	images           [][]byte // captured snapshot images for replay
	suspendedAt      map[sched.JobID]time.Time
	decisionWaitSum  time.Duration
	idleGapSum       time.Duration
	resumeWithoutImg int
	// Slot time outside training and decisions: from a job's start to
	// its first statistic (less that epoch's training, firstEpochSim on
	// the experiment clock), and from a Suspend verdict to the job's
	// exit.
	startedAt     map[sched.JobID]time.Time
	startupSum    time.Duration
	firstEpochSim float64
	suspendingAt  map[sched.JobID]time.Time
	suspendSum    time.Duration
	// loopSum is the time from each Continue reply to the job's next
	// decision request or exit: an epoch's training plus the wire and
	// agent round trip around it.
	repliedAt map[sched.JobID]time.Time
	loopSum   time.Duration
}

func newClusterStats() *clusterStats {
	return &clusterStats{
		suspendedAt:  map[sched.JobID]time.Time{},
		startedAt:    map[sched.JobID]time.Time{},
		suspendingAt: map[sched.JobID]time.Time{},
		repliedAt:    map[sched.JobID]time.Time{},
	}
}

// maxImages bounds how many snapshot images are kept for replay.
const maxImages = 64

// tracedExec wraps an Executor's Start and forwards StopJob.
type tracedExec struct {
	inner       cluster.Executor
	st          *clusterStats
	tr          *tracer
	parent, req int64
	// seen marks jobs already started once: a later start is a resume
	// and must carry a snapshot.
	seen map[sched.JobID]bool
}

func (x *tracedExec) Slots() []cluster.SlotID { return x.inner.Slots() }
func (x *tracedExec) Close() error            { return x.inner.Close() }

func (x *tracedExec) Start(spec cluster.StartSpec) error {
	id := x.tr.begin("cluster", "Executor.Start", x.parent, x.req)
	t0 := time.Now()
	err := x.inner.Start(spec)
	d := time.Since(t0)
	x.tr.end(id)
	x.st.mu.Lock()
	defer x.st.mu.Unlock()
	x.st.starts++
	x.st.startMs.addDur(d)
	if x.seen[spec.Job] && spec.Snapshot == nil {
		x.st.resumeWithoutImg++
	}
	x.seen[spec.Job] = true
	x.st.startedAt[spec.Job] = t0
	if spec.Snapshot != nil {
		x.st.resumes++
		if at, ok := x.st.suspendedAt[spec.Job]; ok {
			x.st.suspendResumeMs.addDur(t0.Sub(at))
			delete(x.st.suspendedAt, spec.Job)
		}
	}
	return err
}

// StopJob forwards the shutdown-drain capability of the wrapped
// executor, so wrapping does not change how an experiment stops.
func (x *tracedExec) StopJob(job sched.JobID, slot cluster.SlotID) error {
	if s, ok := x.inner.(cluster.JobStopper); ok {
		return s.StopJob(job, slot)
	}
	return fmt.Errorf("executor cannot stop jobs")
}

// tracedPool wraps a SlotPool, counting reservations and timing how
// long each slot sits idle between jobs.
type tracedPool struct {
	inner   cluster.SlotPool
	st      *clusterStats
	mu      sync.Mutex
	idleAt  map[cluster.SlotID]time.Time
	stopped bool
}

func newTracedPool(inner cluster.SlotPool, slots []cluster.SlotID, st *clusterStats) *tracedPool {
	p := &tracedPool{inner: inner, st: st, idleAt: map[cluster.SlotID]time.Time{}}
	now := time.Now()
	for _, s := range slots {
		p.idleAt[s] = now
	}
	return p
}

func (p *tracedPool) ReserveIdleMachine() (cluster.SlotID, bool) {
	s, ok := p.inner.ReserveIdleMachine()
	now := time.Now()
	p.st.mu.Lock()
	p.st.reserveAttempts++
	if !ok {
		p.st.reserveFailed++
	}
	p.st.mu.Unlock()
	if ok {
		p.mu.Lock()
		if at, had := p.idleAt[s]; had {
			p.addGap(now.Sub(at))
			delete(p.idleAt, s)
		}
		p.mu.Unlock()
	}
	return s, ok
}

func (p *tracedPool) ReleaseMachine(s cluster.SlotID) error {
	err := p.inner.ReleaseMachine(s)
	if err == nil {
		p.mu.Lock()
		p.idleAt[s] = time.Now()
		p.mu.Unlock()
	}
	return err
}

// closeGaps ends every open idle interval at the end of the run.
func (p *tracedPool) closeGaps(end time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for s, at := range p.idleAt {
		if end.After(at) {
			p.addGap(end.Sub(at))
		}
		delete(p.idleAt, s)
	}
}

func (p *tracedPool) addGap(d time.Duration) {
	p.st.mu.Lock()
	p.st.idleGapMs.addDur(d)
	p.st.idleGapSum += d
	p.st.mu.Unlock()
}

func (p *tracedPool) MarkOffline(s []cluster.SlotID) { p.inner.MarkOffline(s) }
func (p *tracedPool) MarkOnline(s []cluster.SlotID)  { p.inner.MarkOnline(s) }
func (p *tracedPool) IdleCount() int                 { return p.inner.IdleCount() }
func (p *tracedPool) BusyCount() int                 { return p.inner.BusyCount() }
func (p *tracedPool) OfflineCount() int              { return p.inner.OfflineCount() }
func (p *tracedPool) Total() int                     { return p.inner.Total() }

// interpose forwards executor events from raw to out until stop is
// closed, timing how long each decision request waits for its reply and
// how long each event waits to be handed to the scheduler. It returns
// once every reply relay it started has finished.
func interpose(raw <-chan cluster.Event, out chan<- cluster.Event, stop <-chan struct{}, st *clusterStats, tr *tracer, parent, req int64) {
	var relays sync.WaitGroup
	defer relays.Wait()
	for {
		var ev cluster.Event
		select {
		case ev = <-raw:
		case <-stop:
			return
		}
		now := time.Now()
		switch ev.Kind {
		case cluster.EvStat:
			st.mu.Lock()
			st.trainSimSeconds += ev.Duration.Seconds()
			if at, ok := st.startedAt[ev.Job]; ok {
				st.startupSum += now.Sub(at)
				st.firstEpochSim += ev.Duration.Seconds()
				delete(st.startedAt, ev.Job)
			}
			st.mu.Unlock()
		case cluster.EvIterDone:
			st.closeLoop(ev.Job, now)
			if orig := ev.Reply; orig != nil {
				job := ev.Job
				mine := make(chan cluster.DecisionReply, 1)
				ev.Reply = mine
				relays.Add(1)
				go func() {
					defer relays.Done()
					select {
					case r := <-mine:
						tr.record("cluster", "decision_wait", parent, req, now, time.Now())
						d := time.Since(now)
						st.mu.Lock()
						st.decisionWaitMs.addDur(d)
						st.decisionWaitSum += d
						st.mu.Unlock()
						orig <- r
						st.mu.Lock()
						if r.Decision == sched.Continue {
							st.repliedAt[job] = time.Now()
						} else {
							st.suspendingAt[job] = time.Now()
						}
						st.mu.Unlock()
					case <-stop:
					}
				}()
			}
		case cluster.EvSnapshot:
			st.mu.Lock()
			st.snapshots++
			st.snapshotBytes.add(float64(len(ev.Snapshot)))
			if len(st.images) < maxImages {
				st.images = append(st.images, append([]byte(nil), ev.Snapshot...))
			}
			st.mu.Unlock()
		case cluster.EvExited:
			st.mu.Lock()
			if ev.Reason == cluster.ExitSuspended {
				st.suspendedAt[ev.Job] = now
			}
			if at, ok := st.suspendingAt[ev.Job]; ok {
				st.suspendSum += now.Sub(at)
				delete(st.suspendingAt, ev.Job)
			}
			delete(st.startedAt, ev.Job)
			st.mu.Unlock()
			st.closeLoop(ev.Job, now)
		case cluster.EvAgentDown, cluster.EvAgentUp, cluster.EvAgentError, cluster.EvWake:
		}
		select {
		case out <- ev:
		case <-stop:
			return
		}
		st.mu.Lock()
		st.eventWaitMs.addDur(time.Since(now))
		st.mu.Unlock()
	}
}

// countWriter sits under a traced EventLog, counting and timing the
// flusher's writes to the real sink.
type countWriter struct {
	w       io.Writer
	bytes   atomic.Int64
	writeNs atomic.Int64
	writes  atomic.Int64
}

func (w *countWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := w.w.Write(p)
	w.writeNs.Add(int64(time.Since(t0)))
	w.bytes.Add(int64(n))
	w.writes.Add(1)
	return n, err
}

// closeLoop ends the job's open reply-to-next-request interval.
func (st *clusterStats) closeLoop(job sched.JobID, now time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if at, ok := st.repliedAt[job]; ok {
		st.loopSum += now.Sub(at)
		delete(st.repliedAt, job)
	}
}
