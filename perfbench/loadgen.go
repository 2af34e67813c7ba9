package main

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Each workload draws its inputs from its own stream of the seed.
const (
	streamRuntime = iota + 1
	streamSweep
	streamServe
	streamWorld
)

// seeded returns the generator every input of a workload is drawn from.
func seeded(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// poisson returns the arrival offsets of a Poisson process at rate per second
// over d, drawn from rng.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * 1e9)
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// shot is one scheduled request as the generator saw it. Latency runs from
// the due time, not from the send, so time a request spent waiting for the
// generator counts against it.
type shot struct {
	Sent    bool
	Due     time.Time
	Lag     time.Duration // send − due
	Latency time.Duration // completion − due
}

// openLoop sends request i of the schedule at start+sched[i] over conns
// concurrent connections and returns what happened to each. A connection
// takes the next unsent request only when it is free, so when the system is
// slower than the schedule the backlog shows up as lag and latency. Once a
// request would be sent more than abortLag late the rest of the schedule is
// dropped (those shots report Sent false): the rate is already lost and
// waiting for the backlog to drain would only spend the run's time.
func openLoop(start time.Time, sched []time.Duration, conns int, abortLag time.Duration, send func(i int)) []shot {
	shots := make([]shot, len(sched))
	var next atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) || aborted.Load() {
					return
				}
				due := start.Add(sched[i])
				waitUntil(due)
				lag := time.Since(due)
				if lag > abortLag {
					aborted.Store(true)
					return
				}
				send(i)
				shots[i] = shot{Sent: true, Due: due, Lag: lag, Latency: time.Since(due)}
			}
		}()
	}
	wg.Wait()
	return shots
}

// waitUntil returns at t. It sleeps in the kernel rather than on a Go
// timer: an idle Go process wakes from a short time.Sleep about a
// millisecond late, which would count as generator lag in every latency,
// while nanosleep overshoots by a tenth of that.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early wake-up loops
	}
}

// closedLoop sends requests 0, 1, … back to back over conns connections:
// each takes the next one as soon as its last one returns, until stop has
// passed or n have been taken. It returns what happened to each.
func closedLoop(stop time.Time, n, conns int, send func(i int)) []shot {
	shots := make([]shot, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t0 := time.Now()
				send(i)
				shots[i] = shot{Sent: true, Due: t0, Latency: time.Since(t0)}
			}
		}()
	}
	wg.Wait()
	return shots
}
