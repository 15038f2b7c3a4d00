package cluster

import (
	"fmt"
	"sync"

	"github.com/hyperdrive-ml/hyperdrive/internal/checkpoint"
	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// WorkerPool is the in-process Executor: one goroutine per slot
// running synthetic trainers against the experiment clock. It is the
// single-machine deployment of HyperDrive (the paper co-locates the
// scheduler with training machines in the private-cluster setup).
type WorkerPool struct {
	registry *workload.Registry
	clk      clock.Clock
	events   chan<- Event
	capturer *checkpoint.Capturer

	// stop is stopped by Close. A job frees its slot before it emits
	// its terminal event, so once it has left running only this signal
	// can reach it while it blocks on that send.
	stop *stopSignal

	mu      sync.Mutex
	slots   []SlotID
	running map[SlotID]*workerJob
	closed  bool
	wg      sync.WaitGroup
}

// workerJob is one running training loop.
type workerJob struct {
	spec StartSpec
	stop *stopSignal // stopped to request asynchronous termination
	// reply is reused for every iteration-boundary round trip of this
	// job: the scheduler sends exactly one DecisionReply per EvIterDone
	// and the loop consumes it before emitting the next, so a single
	// buffered channel suffices — no per-decision allocation.
	reply chan DecisionReply
}

// NewWorkerPool builds a pool with n slots. Events are delivered on
// events; the capturer models snapshot size/latency (may be nil for
// free suspends).
func NewWorkerPool(n int, registry *workload.Registry, clk clock.Clock, capturer *checkpoint.Capturer, events chan<- Event) (*WorkerPool, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: worker pool needs >= 1 slot, got %d", n)
	}
	if registry == nil || clk == nil || events == nil {
		return nil, fmt.Errorf("cluster: worker pool needs registry, clock, and event channel")
	}
	p := &WorkerPool{
		registry: registry,
		clk:      clk,
		events:   events,
		capturer: capturer,
		stop:     newStopSignal(),
		running:  make(map[SlotID]*workerJob),
	}
	for i := 0; i < n; i++ {
		p.slots = append(p.slots, SlotID(fmt.Sprintf("worker-%d", i)))
	}
	return p, nil
}

// Slots implements Executor.
func (p *WorkerPool) Slots() []SlotID {
	return append([]SlotID(nil), p.slots...)
}

// Start implements Executor.
func (p *WorkerPool) Start(spec StartSpec) error {
	spec2 := spec
	wspec, err := p.registry.Lookup(spec.Workload)
	if err != nil {
		return err
	}
	trainer := wspec.New(spec.Config, spec.Seed)
	if spec.Snapshot != nil {
		payload, err := checkpoint.Decode(spec.Snapshot)
		if err != nil {
			return fmt.Errorf("cluster: resume %s: %w", spec.Job, err)
		}
		if err := trainer.Restore(payload); err != nil {
			return fmt.Errorf("cluster: resume %s: %w", spec.Job, err)
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("cluster: worker pool closed")
	}
	if _, busy := p.running[spec.Slot]; busy {
		return fmt.Errorf("cluster: slot %s already busy", spec.Slot)
	}
	known := false
	for _, s := range p.slots {
		if s == spec.Slot {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("cluster: unknown slot %s", spec.Slot)
	}
	wj := &workerJob{spec: spec2, stop: newStopSignal(), reply: make(chan DecisionReply, 1)}
	p.running[spec.Slot] = wj
	p.wg.Add(1)
	go p.runJob(wj, trainer)
	return nil
}

// Close implements Executor: stops all jobs and waits for their
// goroutines.
func (p *WorkerPool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.stop.Stop()
	for _, wj := range p.running {
		wj.stop.Stop()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return nil
}

// StopJob implements JobStopper: asynchronously stop the job bound to
// slot. The loop acknowledges with an EvExited/ExitTerminated event
// (best effort — dropped if nobody is draining the channel anymore).
func (p *WorkerPool) StopJob(job sched.JobID, slot SlotID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	wj, ok := p.running[slot]
	if !ok || wj.spec.Job != job {
		return fmt.Errorf("cluster: job %s not running on slot %s", job, slot)
	}
	wj.stop.Stop() // a no-op when already stopping (pool Close or a duplicate request)
	return nil
}

// emit delivers an event unless the job is stopped or the pool is
// shutting down.
func (p *WorkerPool) emit(wj *workerJob, ev Event) bool {
	select {
	case p.events <- ev:
		return true
	case <-wj.stop.Done():
		return false
	case <-p.stop.Done():
		return false
	}
}

// release frees the slot when a job ends.
func (p *WorkerPool) release(slot SlotID) {
	p.mu.Lock()
	delete(p.running, slot)
	p.mu.Unlock()
}

// emitExit ends a job: it frees the slot first, so a scheduler that
// restarts the slot as soon as it reads the terminal event is never
// refused with "slot already busy", then delivers ev. Exit events are
// what lets the scheduler's shutdown drain release the slot, so they
// must not be swallowed by a racing StopJob — the stop-aware send is
// followed by a non-blocking fallback — but they also must not block,
// since during pool Close nobody drains the event channel at all.
func (p *WorkerPool) emitExit(wj *workerJob, ev Event) {
	p.release(wj.spec.Slot)
	if p.emit(wj, ev) {
		return
	}
	select {
	case p.events <- ev:
	default:
	}
}

// emitStopped acknowledges an asynchronous stop with a terminated
// exit, best effort (nobody may be draining events anymore), after
// freeing the slot as emitExit does.
func (p *WorkerPool) emitStopped(wj *workerJob, epoch int) {
	p.release(wj.spec.Slot)
	select {
	case p.events <- Event{Kind: EvExited, Job: wj.spec.Job, Slot: wj.spec.Slot, Epoch: epoch, Reason: ExitTerminated, Trace: wj.spec.Trace}:
	default:
	}
}

// runJob is the per-slot training loop: step an epoch (sleeping its
// simulated duration on the experiment clock), report the statistic,
// then block on the scheduler's OnIterationFinish decision — the
// paper's schedule-as-it-goes execution with per-job decision points.
func (p *WorkerPool) runJob(wj *workerJob, trainer workload.Trainer) {
	defer p.wg.Done()
	spec := wj.spec
	for {
		select {
		case <-wj.stop.Done():
			p.emitStopped(wj, trainer.Epoch())
			return
		default:
		}

		s, done := trainer.Step()
		p.clk.Sleep(s.Duration)

		if !p.emit(wj, Event{
			Kind: EvStat, Job: spec.Job, Slot: spec.Slot,
			Epoch: s.Epoch, Metric: s.Metric, Duration: s.Duration,
		}) {
			p.emitStopped(wj, s.Epoch)
			return
		}
		if done {
			p.emitExit(wj, Event{Kind: EvExited, Job: spec.Job, Slot: spec.Slot, Epoch: s.Epoch, Reason: ExitCompleted, Trace: spec.Trace})
			return
		}

		if !p.emit(wj, Event{Kind: EvIterDone, Job: spec.Job, Slot: spec.Slot, Epoch: s.Epoch, Reply: wj.reply, Trace: spec.Trace}) {
			p.emitStopped(wj, s.Epoch)
			return
		}
		var dr DecisionReply
		select {
		case dr = <-wj.reply:
		case <-wj.stop.Done():
			p.emitStopped(wj, s.Epoch)
			return
		}

		switch dr.Decision {
		case sched.Terminate:
			p.emitExit(wj, Event{Kind: EvExited, Job: spec.Job, Slot: spec.Slot, Epoch: s.Epoch, Reason: ExitTerminated, Trace: dr.Trace})
			return
		case sched.Suspend:
			payload, err := trainer.Snapshot()
			if err != nil {
				p.emitExit(wj, Event{Kind: EvExited, Job: spec.Job, Slot: spec.Slot, Epoch: s.Epoch, Reason: ExitError, Err: err, Trace: dr.Trace})
				return
			}
			var (
				img  checkpoint.Image
				data []byte
			)
			if p.capturer != nil {
				img = p.capturer.Capture(payload)
				p.clk.Sleep(img.Latency) // suspend latency costs experiment time
				data = img.Encode()
			} else {
				img = checkpoint.Image{Payload: payload, Size: len(payload)}
				data = img.Encode()
			}
			if !p.emit(wj, Event{
				Kind: EvSnapshot, Job: spec.Job, Slot: spec.Slot, Epoch: trainer.Epoch(),
				Snapshot: data, SnapSize: img.Size, SnapLat: img.Latency, Trace: dr.Trace,
			}) {
				p.emitStopped(wj, trainer.Epoch())
				return
			}
			p.emitExit(wj, Event{Kind: EvExited, Job: spec.Job, Slot: spec.Slot, Epoch: trainer.Epoch(), Reason: ExitSuspended, Trace: dr.Trace})
			return
		default: // Continue
		}
	}
}

var (
	_ Executor   = (*WorkerPool)(nil)
	_ JobStopper = (*WorkerPool)(nil)
)
