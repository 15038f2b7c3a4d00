package cluster

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"github.com/hyperdrive-ml/hyperdrive/internal/param"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
	"github.com/hyperdrive-ml/hyperdrive/internal/wire"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// raceAll runs every fn on its own goroutine, released together, and
// waits for all of them.
func raceAll(fns ...func()) {
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			<-start
			fn()
		}(fn)
	}
	close(start)
	wg.Wait()
}

func TestStopSignalIdempotent(t *testing.T) {
	s := newStopSignal()
	fns := make([]func(), 8)
	for i := range fns {
		fns[i] = s.Stop
	}
	raceAll(fns...)
	s.Stop()
	select {
	case <-s.Done():
	default:
		t.Fatal("Done not closed after Stop")
	}
}

// TestAgentStopPathsRace races every path that stops an agent's jobs
// against the others: Close, a terminate request over the wire, the
// direct terminate, and connection loss. Each path used to close the
// job's stop channel on its own, and any two of them meeting panicked
// with "close of closed channel". Run it with -race -count=50.
func TestAgentStopPathsRace(t *testing.T) {
	a, err := NewAgent(AgentOptions{ID: "racy", Slots: 4, Clock: fastClock()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		a.Serve(l)
	}()
	conn, _ := dialRaw(t, l.Addr().String())
	cfg := param.CIFAR10Space().Sample(newTestRand())
	var ids []sched.JobID
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("j%d", i)
		ids = append(ids, sched.JobID(id))
		if err := conn.SendTyped(wire.MsgStartJob, wire.StartJobPayload{
			JobID: id, Workload: "cifar10", Config: cfg, Seed: int64(i), MaxEpoch: 120,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The agent handles frames in order, so the pong means every start
	// has run. No decisions are ever sent: the jobs park at their first
	// iteration boundary until something stops them.
	if err := conn.Send(wire.Message{Type: wire.MsgPing, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	recvUntil(t, conn, wire.MsgPong)

	terminateWire := func() {
		for _, id := range ids {
			_ = conn.SendTyped(wire.MsgTerminateJob, wire.JobControlPayload{JobID: string(id)})
		}
	}
	terminateDirect := func() {
		for _, id := range ids {
			a.terminateJob(id)
		}
	}
	raceAll(
		func() { a.Close() },
		terminateWire,
		terminateDirect,
		terminateDirect,
		func() { conn.Close() }, // connection loss: stopAllJobs
		a.stopAllJobs,
		func() { a.Close() },
	)
	a.Close()
	l.Close()
	<-served
}

// TestWorkerPoolStopPathsRace is the in-process twin: StopJob (twice
// per job) racing the pool's Close.
func TestWorkerPoolStopPathsRace(t *testing.T) {
	// Buffered for every stat and boundary the four jobs emit before
	// they park; nothing drains it.
	events := make(chan Event, 64)
	p, err := NewWorkerPool(4, workload.NewRegistry(), fastClock(), nil, events)
	if err != nil {
		t.Fatal(err)
	}
	cfg := param.CIFAR10Space().Sample(newTestRand())
	for i, slot := range p.Slots() {
		job := sched.JobID(fmt.Sprintf("j%d", i))
		if err := p.Start(StartSpec{Job: job, Slot: slot, Workload: "cifar10", Config: cfg, Seed: int64(i), MaxEpoch: 120}); err != nil {
			t.Fatal(err)
		}
	}
	stopAll := func() {
		for i, slot := range p.Slots() {
			_ = p.StopJob(sched.JobID(fmt.Sprintf("j%d", i)), slot)
		}
	}
	raceAll(stopAll, func() { p.Close() }, stopAll)
	p.Close()
}

// TestAgentSlotFreeBeforeExitFrame pins the agent's exit ordering: by
// the time the scheduler reads a job's JobExited, the job's slot is
// free, so starting the next job there at once must never be refused
// with "no free slot".
func TestAgentSlotFreeBeforeExitFrame(t *testing.T) {
	addr := startAgent(t, AgentOptions{ID: "reuse", Slots: 1})
	conn, _ := dialRaw(t, addr)
	cfg := param.CIFAR10Space().Sample(newTestRand())
	// next reads frames until want arrives for job, failing on any
	// error frame.
	next := func(want wire.MsgType, job string) {
		t.Helper()
		for {
			msg, err := conn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			switch msg.Type {
			case wire.MsgError:
				var p wire.ErrorPayload
				_ = msg.Decode(&p)
				t.Fatalf("agent refused %s: %s", p.JobID, p.Message)
			case want:
				var p struct {
					JobID string `json:"jobId"`
				}
				if err := msg.Decode(&p); err != nil {
					t.Fatal(err)
				}
				if p.JobID == job {
					return
				}
			}
		}
	}
	for i := 0; i < 30; i++ {
		job := fmt.Sprintf("j%d", i)
		if err := conn.SendTyped(wire.MsgStartJob, wire.StartJobPayload{
			JobID: job, Workload: "cifar10", Config: cfg, Seed: int64(i), MaxEpoch: 120,
		}); err != nil {
			t.Fatal(err)
		}
		next(wire.MsgIterDone, job)
		if err := conn.SendTyped(wire.MsgTerminateJob, wire.JobControlPayload{JobID: job}); err != nil {
			t.Fatal(err)
		}
		next(wire.MsgJobExited, job)
	}
}
