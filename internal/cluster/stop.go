package cluster

import "sync"

// stopSignal is a stop channel with one idempotent owner. Stop closes
// it exactly once however many goroutines call it, so the teardown
// paths that stop a job — an executor's Close, a terminate request,
// connection loss — may race without a double close.
type stopSignal struct {
	once sync.Once
	ch   chan struct{}
}

func newStopSignal() *stopSignal { return &stopSignal{ch: make(chan struct{})} }

// Stop closes the signal; calls after the first are no-ops.
func (s *stopSignal) Stop() { s.once.Do(func() { close(s.ch) }) }

// Done returns the channel Stop closes.
func (s *stopSignal) Done() <-chan struct{} { return s.ch }
