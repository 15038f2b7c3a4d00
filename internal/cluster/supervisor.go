package cluster

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
)

// BackoffConfig shapes the supervisor's reconnect schedule:
// exponential growth from Base to Max with multiplicative Jitter, so a
// fleet of supervisors losing the same agent does not redial in
// lockstep. The jitter RNG is seeded (Seed) so a replayed failure
// schedule is reproducible.
type BackoffConfig struct {
	// Base is the first retry delay (default 500ms).
	Base time.Duration
	// Max caps the delay (default 15s).
	Max time.Duration
	// Factor multiplies the delay each failure (default 2).
	Factor float64
	// Jitter is the ± fraction applied to each delay (default 0.2).
	Jitter float64
	// Seed seeds the jitter RNG (default 1).
	Seed int64
}

func (b BackoffConfig) withDefaults() BackoffConfig {
	if b.Base <= 0 {
		b.Base = 500 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 15 * time.Second
	}
	if b.Factor < 1 {
		b.Factor = 2
	}
	if b.Jitter < 0 || b.Jitter > 1 {
		b.Jitter = 0.2
	}
	if b.Seed == 0 {
		b.Seed = 1
	}
	return b
}

// SupervisorOptions configures an AgentSupervisor.
type SupervisorOptions struct {
	// Dial opens a fresh transport to the agent; required. It is
	// invoked for the initial connection and for every reconnect
	// attempt, so tests can interpose fault-injecting wrappers.
	Dial func() (net.Conn, error)
	// Heartbeat tunes the liveness probe; zero fields take the
	// defaults (a zero Interval becomes DefaultHeartbeatInterval — the
	// supervisor always runs the heartbeat).
	Heartbeat HeartbeatConfig
	// Backoff shapes the reconnect schedule.
	Backoff BackoffConfig
	// Obs, when non-nil, receives agent_up, reconnect, and
	// heartbeat-RTT telemetry.
	Obs *obs.Registry
	// Logf receives supervisor diagnostics; nil discards them.
	Logf func(format string, args ...interface{})
}

// AgentSupervisor is the fault-tolerant Executor over one remote
// agent: it owns the connection lifecycle — heartbeat monitoring,
// dead-agent declaration, exponential-backoff reconnect with
// re-handshake — while exposing a stable slot set to the scheduler.
//
// On failure it emits EvAgentDown (before the per-job ExitLost events,
// so the experiment quarantines the slots first), then keeps redialing
// until Close; each successful re-handshake emits EvAgentUp and the
// slots become schedulable again.
type AgentSupervisor struct {
	opts    SupervisorOptions
	events  chan<- Event
	agentID string
	slots   []SlotID

	up         *obs.Gauge
	reconnects *obs.Counter

	mu     sync.Mutex
	client *AgentClient // nil while down/reconnecting
	closed bool

	stop  *stopSignal
	done  chan struct{} // monitor loop exited
	ready chan struct{} // closed once identity fields are initialized
}

// DialAgentSupervised dials addr and wraps the connection in a
// supervisor. The initial dial must succeed (it establishes the
// agent's identity and slot count); later failures reconnect
// automatically.
func DialAgentSupervised(addr string, events chan<- Event, opts SupervisorOptions) (*AgentSupervisor, error) {
	if opts.Dial == nil {
		opts.Dial = func() (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 10*time.Second)
		}
	}
	return SuperviseAgent(events, opts)
}

// SuperviseAgent performs the initial dial + handshake and starts the
// reconnect monitor.
func SuperviseAgent(events chan<- Event, opts SupervisorOptions) (*AgentSupervisor, error) {
	if opts.Dial == nil {
		return nil, fmt.Errorf("cluster: supervisor needs a Dial function")
	}
	if opts.Heartbeat.Interval <= 0 {
		opts.Heartbeat.Interval = DefaultHeartbeatInterval
	}
	opts.Heartbeat = opts.Heartbeat.withDefaults()
	opts.Backoff = opts.Backoff.withDefaults()
	if opts.Logf == nil {
		opts.Logf = func(string, ...interface{}) {}
	}
	s := &AgentSupervisor{
		opts:   opts,
		events: events,
		stop:   newStopSignal(),
		done:   make(chan struct{}),
		ready:  make(chan struct{}),
	}
	client, err := s.connect("")
	if err != nil {
		return nil, err
	}
	s.agentID = client.AgentID()
	s.slots = client.Slots()
	s.client = client
	s.up = opts.Obs.Gauge(obs.AgentUp(s.agentID))
	s.reconnects = opts.Obs.Counter(obs.AgentReconnectsTotal(s.agentID))
	s.up.Set(1)
	close(s.ready)
	go s.monitor()
	return s, nil
}

// connect dials and handshakes once. A non-empty wantID enforces that
// the agent at the other end is still the same one (same identity,
// same slot count) — a different agent answering the address must not
// silently inherit the old one's slots.
func (s *AgentSupervisor) connect(wantID string) (*AgentClient, error) {
	nc, err := s.opts.Dial()
	if err != nil {
		return nil, err
	}
	client, err := NewAgentClientOpts(nc, s.events, AgentClientOptions{
		Heartbeat: s.opts.Heartbeat,
		Obs:       s.opts.Obs,
		OnDown:    s.agentDown,
	})
	if err != nil {
		return nil, err
	}
	if wantID != "" && (client.AgentID() != wantID || len(client.Slots()) != len(s.slots)) {
		id, n := client.AgentID(), len(client.Slots())
		client.Close()
		return nil, fmt.Errorf("cluster: agent identity changed across reconnect: got %s/%d slots, want %s/%d",
			id, n, wantID, len(s.slots))
	}
	return client, nil
}

// agentDown runs inside the dying client's read loop, before the
// per-job ExitLost events: mark the agent down and tell the scheduler
// to quarantine its slots.
func (s *AgentSupervisor) agentDown(cause error) {
	// The very first connection can die while SuperviseAgent is still
	// filling in identity fields; wait until they are set.
	<-s.ready
	s.up.Set(0)
	s.opts.Logf("cluster: agent %s down: %v", s.agentID, cause)
	s.emit(Event{
		Kind: EvAgentDown, Agent: s.agentID,
		AgentSlots: append([]SlotID(nil), s.slots...),
		Err:        cause,
	})
}

// emit delivers one supervisor event unless the supervisor is closing.
func (s *AgentSupervisor) emit(ev Event) {
	select {
	case s.events <- ev:
	case <-s.stop.Done():
	}
}

// reconnectBackoff is the supervisor's retry schedule as an explicit
// state machine: Next() yields the jittered delay before the upcoming
// attempt and escalates, Reset() returns the schedule to Base. Its
// state deliberately outlives a single failure episode — the monitor
// loop owns one instance for its whole life — so "the escalated
// interval must not leak into the next episode" is an invariant the
// success path has to enforce by calling Reset() after every
// re-handshake, not an accident of variable scoping.
type reconnectBackoff struct {
	cfg BackoffConfig
	rng *rand.Rand
	cur time.Duration
}

func newReconnectBackoff(cfg BackoffConfig) *reconnectBackoff {
	return &reconnectBackoff{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		cur: cfg.Base,
	}
}

// Next returns the delay to sleep before the next attempt and
// escalates the schedule (Factor-multiplied, capped at Max).
func (b *reconnectBackoff) Next() time.Duration {
	d := jittered(b.rng, b.cur, b.cfg.Jitter)
	b.cur = time.Duration(float64(b.cur) * b.cfg.Factor)
	if b.cur > b.cfg.Max {
		b.cur = b.cfg.Max
	}
	return d
}

// Reset returns the schedule to the base interval. Call after a
// successful re-handshake: the next failure episode starts fresh.
func (b *reconnectBackoff) Reset() { b.cur = b.cfg.Base }

// Current exposes the unjittered next delay (tests).
func (b *reconnectBackoff) Current() time.Duration { return b.cur }

// monitor waits for the current client to die, then redials with
// exponential backoff + jitter until a re-handshake succeeds or the
// supervisor is closed.
func (s *AgentSupervisor) monitor() {
	defer close(s.done)
	bo := newReconnectBackoff(s.opts.Backoff)
	for {
		s.mu.Lock()
		client := s.client
		s.mu.Unlock()
		select {
		case <-client.Done():
		case <-s.stop.Done():
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		s.client = nil
		s.mu.Unlock()

		for attempt := 1; ; attempt++ {
			next, err := s.connect(s.agentID)
			if err == nil {
				s.mu.Lock()
				if s.closed {
					s.mu.Unlock()
					next.Close()
					return
				}
				s.client = next
				s.mu.Unlock()
				s.reconnects.Inc()
				s.up.Set(1)
				// Successful re-handshake: the escalated schedule must
				// not carry into the next failure episode.
				bo.Reset()
				s.opts.Logf("cluster: agent %s reconnected after %d attempt(s)", s.agentID, attempt)
				s.emit(Event{
					Kind: EvAgentUp, Agent: s.agentID,
					AgentSlots: append([]SlotID(nil), s.slots...),
				})
				break
			}
			s.opts.Logf("cluster: agent %s reconnect attempt %d: %v (retrying in ~%v)",
				s.agentID, attempt, err, bo.Current())
			select {
			case <-s.stop.Done():
				return
			case <-time.After(bo.Next()):
			}
		}
	}
}

// jittered spreads d by ±frac using the seeded rng.
func jittered(rng *rand.Rand, d time.Duration, frac float64) time.Duration {
	if frac <= 0 {
		return d
	}
	spread := 1 + frac*(2*rng.Float64()-1)
	return time.Duration(float64(d) * spread)
}

// AgentID returns the supervised agent's name.
func (s *AgentSupervisor) AgentID() string { return s.agentID }

// Up reports whether the agent currently holds a healthy connection.
func (s *AgentSupervisor) Up() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.client != nil
}

// Slots implements Executor: the slot set is stable across reconnects.
func (s *AgentSupervisor) Slots() []SlotID { return append([]SlotID(nil), s.slots...) }

// Start implements Executor. While the agent is down it fails fast —
// the scheduler should never see a quarantined slot, so reaching this
// is a scheduling bug surfaced loudly rather than a hung job.
func (s *AgentSupervisor) Start(spec StartSpec) error {
	s.mu.Lock()
	client := s.client
	s.mu.Unlock()
	if client == nil {
		return fmt.Errorf("cluster: agent %s is down (reconnecting); slot %s is quarantined", s.agentID, spec.Slot)
	}
	return client.Start(spec)
}

// StopJob implements JobStopper. While the agent is down the job is
// already gone (its loss was, or will be, surfaced as ExitLost), so
// there is nothing to stop.
func (s *AgentSupervisor) StopJob(job sched.JobID, slot SlotID) error {
	s.mu.Lock()
	client := s.client
	s.mu.Unlock()
	if client == nil {
		return fmt.Errorf("cluster: agent %s is down; job %s already lost", s.agentID, job)
	}
	return client.StopJob(job, slot)
}

// Close implements Executor: stops reconnecting and closes the live
// connection (if any).
func (s *AgentSupervisor) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	client := s.client
	s.mu.Unlock()
	s.stop.Stop()
	var err error
	if client != nil {
		err = client.Close()
	}
	<-s.done
	return err
}

var (
	_ Executor   = (*AgentSupervisor)(nil)
	_ JobStopper = (*AgentSupervisor)(nil)
)
