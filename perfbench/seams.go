package main

import (
	"sync"
	"sync/atomic"
	"time"

	"appfit/internal/buffer"
	"appfit/internal/core"
	"appfit/internal/dist"
	"appfit/internal/fault"
	"appfit/internal/fit"
	"appfit/internal/vote"
)

// layers collects everything a traced run measures: the span recorder, the
// counters the wrapping seams below maintain, and named values the workloads
// add from the program's own counters. A nil *layers means untraced.
type layers struct {
	rec *recorder

	decideNs, observeNs, decisions atomic.Int64
	compares, compareNs            atomic.Int64
	draws, sdc, due                atomic.Int64
	sends, sendBytes, recvWaitNs   atomic.Int64

	mu   sync.Mutex
	vals map[string]float64 // guarded by mu
	maxs map[string]float64 // guarded by mu
	ops  int                // guarded by mu
}

func newLayers() *layers {
	return &layers{rec: newRecorder(), vals: map[string]float64{}, maxs: map[string]float64{}}
}

// add accumulates v into the per-run total of name.
func (l *layers) add(name string, v float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.vals[name] += v
	l.mu.Unlock()
}

// peak keeps the largest value seen for name.
func (l *layers) peak(name string, v float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if old, ok := l.maxs[name]; !ok || v > old {
		l.maxs[name] = v
	}
	l.mu.Unlock()
}

// opDone counts one completed operation; per-operation metrics divide by it.
func (l *layers) opDone() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.ops++
	l.mu.Unlock()
}

func (l *layers) recorder() *recorder {
	if l == nil {
		return nil
	}
	return l.rec
}

// selector times an inner core.Selector's decisions.
type selector struct {
	core.Selector
	l *layers
}

func (s selector) Decide(t fit.Task) bool {
	t0 := time.Now()
	d := s.Selector.Decide(t)
	s.l.decideNs.Add(int64(time.Since(t0)))
	s.l.decisions.Add(1)
	return d
}

func (s selector) Observe(t fit.Task, replicated bool) {
	t0 := time.Now()
	s.Selector.Observe(t, replicated)
	s.l.observeNs.Add(int64(time.Since(t0)))
}

// comparator times an inner vote.Comparator.
type comparator struct {
	vote.Comparator
	l *layers
}

func (c comparator) Equal(a, b []buffer.Buffer) bool {
	t0 := time.Now()
	eq := c.Comparator.Equal(a, b)
	c.l.compareNs.Add(int64(time.Since(t0)))
	c.l.compares.Add(1)
	return eq
}

// injector counts an inner fault.Injector's draws by outcome.
type injector struct {
	fault.Injector
	l *layers
}

func (i injector) Draw(taskID uint64, attempt int, pDUE, pSDC float64) fault.Outcome {
	o := i.Injector.Draw(taskID, attempt, pDUE, pSDC)
	i.l.draws.Add(1)
	switch o {
	case fault.SDC:
		i.l.sdc.Add(1)
	case fault.DUE:
		i.l.due.Add(1)
	}
	return o
}

// transport counts an inner dist.Transport's sends and times its receives.
type transport struct {
	dist.Transport
	l *layers
}

func (t transport) Send(m dist.Match, payload buffer.Buffer) {
	t.l.sends.Add(1)
	t.l.sendBytes.Add(payload.SizeBytes())
	t.Transport.Send(m, payload)
}

func (t transport) Recv(m dist.Match) (buffer.Buffer, error) {
	t0 := time.Now()
	b, err := t.Transport.Recv(m)
	t.l.recvWaitNs.Add(int64(time.Since(t0)))
	return b, err
}

// The wrap helpers return the inner value untouched when untraced.

func (l *layers) selector(s core.Selector) core.Selector {
	if l == nil {
		return s
	}
	return selector{s, l}
}

func (l *layers) comparator(c vote.Comparator) vote.Comparator {
	if l == nil {
		return c
	}
	return comparator{c, l}
}

func (l *layers) injector(i fault.Injector) fault.Injector {
	if l == nil {
		return i
	}
	return injector{i, l}
}

func (l *layers) transport(t dist.Transport) dist.Transport {
	if l == nil {
		return t
	}
	return transport{t, l}
}

// sampler polls a gauge on a fixed period from its own goroutine until
// stopped.
type sampler struct {
	stop, done chan struct{}
	sum, n     float64
	max        float64
}

func sample(period time.Duration, gauge func() int) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				v := float64(gauge())
				s.sum += v
				s.n++
				s.max = max(s.max, v)
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for its goroutine; the fields are safe
// to read afterwards.
func (s *sampler) finish() *sampler {
	close(s.stop)
	<-s.done
	return s
}
