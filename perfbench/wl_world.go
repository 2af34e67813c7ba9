package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"appfit/internal/bench/cholesky"
	"appfit/internal/bench/workload"
	"appfit/internal/core"
	"appfit/internal/dist"
	"appfit/internal/fault"
	"appfit/internal/rt"
	"appfit/internal/simnet"
	"appfit/internal/trace"
	"appfit/internal/vote"
)

const (
	worldRanks   = 4
	worldPerNode = 2    // two ranks share a node: hierarchical collectives and Split sub-comms run
	worldFault   = 0.02 // per-attempt DUE and SDC probability of a tile kernel
)

var (
	worldChol = cholesky.DistConfig{Nb: 8, B: 64}
	worldHalo = workload.HaloConfig{Iters: 16, N: 4096}
)

// worldWL runs one dist.World at a time: 4 in-process ranks with 1 worker
// each over the Direct transport, placed 2 per node, running the
// block-cyclic cholesky and the halo exchange with every compute task
// replicated under seeded faults. It is the only workload where dist does
// the work. The seed picks each rank's fault seed.
type worldWL struct {
	e    *env
	topo *simnet.Topology
	rng  *rand.Rand
}

func newWorldWorkload(e *env) runner { return &worldWL{e: e} }

func (w *worldWL) close() error { return nil }

func (w *worldWL) setup() error {
	topo, err := simnet.BlockTopology(worldRanks, worldPerNode, simnet.MemoryBus(), simnet.Marenostrum())
	if err != nil {
		return err
	}
	w.topo = topo
	w.rng = seeded(w.e.seed, streamWorld)
	// One untimed World warms the allocator and checks the build.
	if _, _, ok := w.op(w.faultSeeds(), nil); !ok {
		return fmt.Errorf("world warm-up failed its checks")
	}
	w.rng = seeded(w.e.seed, streamWorld)
	return nil
}

func (w *worldWL) faultSeeds() []uint64 {
	s := make([]uint64, worldRanks)
	for i := range s {
		s[i] = w.rng.Uint64()
	}
	return s
}

func (w *worldWL) measure(d time.Duration, l *layers) (*phase, error) {
	p := &phase{}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		lat, tasks, ok := w.op(w.faultSeeds(), l)
		p.attempted++
		if !ok {
			p.failed++
		}
		p.lat = append(p.lat, ms(lat))
		p.rates = append(p.rates, float64(tasks)/lat.Seconds())
		l.opDone()
	}
	p.note("world_p50_ms", median(p.lat), "ms")
	p.note("world_p90_ms", percentile(p.lat, 90), "ms")
	return p, nil
}

// op builds, runs and verifies one World. The timed part ends when the
// World has shut down; the bitwise checks against the serial references run
// after.
func (w *worldWL) op(seeds []uint64, l *layers) (time.Duration, uint64, bool) {
	rec := l.recorder()
	id := rec.newOp()
	tracers := make([]*trace.Tracer, worldRanks)
	cfg := dist.Config{
		Ranks:     worldRanks,
		Topology:  w.topo,
		Transport: l.transport(dist.NewDirect()),
		RT: func(rank int) rt.Config {
			if l != nil {
				tracers[rank] = trace.New()
			}
			return rt.Config{
				Workers:    1,
				Selector:   l.selector(core.ReplicateAll{}),
				Injector:   l.injector(fault.NewFixedRate(seeds[rank], worldFault, worldFault)),
				Comparator: l.comparator(vote.Bitwise{}),
				Tracer:     tracers[rank],
			}
		},
	}

	t0 := time.Now()
	root := rec.begin(id, -1, "op.world")
	wd := dist.NewWorld(cfg)
	var smp *sampler
	if l != nil {
		smp = sample(time.Millisecond, func() int {
			n := 0
			for r := 0; r < worldRanks; r++ {
				n += wd.Rank(r).Runtime().ReadyPending()
			}
			return n
		})
	}
	s := rec.begin(id, root, "bench.build_dist")
	chol, errC := cholesky.BuildDist(wd.Comm(), worldChol)
	halo, errH := workload.BuildHalo(wd.Comm().Dup(), worldHalo)
	rec.end(s)
	s = rec.begin(id, root, "dist.shutdown")
	errS := wd.Shutdown()
	rec.end(s)
	lat := time.Since(t0)
	if smp != nil {
		smp.finish()
	}
	ok := true
	for _, err := range []error{errC, errH, errS} {
		if err != nil {
			ok = false
			w.e.failf("world: %v", err)
		}
	}
	if ok {
		s = rec.begin(id, root, "bench.verify")
		errs := []error{chol.Verify(), halo.Verify()}
		rec.end(s)
		for _, err := range errs {
			if err != nil {
				ok = false
				w.e.failf("world: %v", err)
			}
		}
	}
	rec.end(root)
	st := wd.Stats()
	if l != nil {
		for _, tr := range tracers {
			addRecords(l, tr)
		}
		addStats(l, st)
		l.add("dist.messages", float64(wd.MessagesSent()))
		l.add("sched.ready_samples", smp.n)
		l.add("sched.ready_sum", smp.sum)
	}
	return lat, st.Completed, ok
}
