package main

import (
	"context"
	"math/rand/v2"
	"time"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/cluster"
	"appfit/internal/experiments"
	"appfit/internal/place"
	"appfit/internal/simnet"
	"appfit/internal/sweep"
)

// The paper's headline figures at Small scale as the program computes them
// today. They are deterministic virtual quantities: every regeneration must
// reproduce them exactly, so a change to the cost model or the recovery
// logic that moves one shows up as a failed check.
const (
	wantFig4OverheadPct = 12.098508111004968
	wantFig5Speedup16   = 13.648898323303309
	wantFig6Speedup1024 = 1.7933139318146725
)

// placeNodes and placePerNode shape the AutoPlace batch: the four
// distributed jobs at 64 simulated nodes, packed 16 to a machine.
const placeNodes, placePerNode = 64, 16

// sweepWL regenerates the figures cold: every operation uses a fresh
// sweep.Engine, so every request misses the cache and the time goes to job
// building, the cluster simulator and the placement search. The seed picks
// the order of the four batches and the placement-search seeds; the figure
// batches keep their fixed fault seeds.
type sweepWL struct {
	e     *env
	rng   *rand.Rand
	tasks int // simulated tasks per operation
	block *simnet.Topology
	jobs  map[string]cluster.Job // the AutoPlace jobs by name

	simWorse int // AutoPlace runs whose simulated makespan exceeded the block start's
}

func newSweepWorkload(e *env) runner { return &sweepWL{e: e} }

func (w *sweepWL) close() error { return nil }

func (w *sweepWL) setup() error {
	block, err := simnet.BlockTopology(placeNodes, placePerNode, simnet.MemoryBus(), simnet.Marenostrum())
	if err != nil {
		return err
	}
	w.block = block
	// Count the simulated tasks of one regeneration. Fig-5 runs each
	// shared-memory job at 5 core counts × 3 fault rates; Fig-6 runs each
	// distributed job at 5 node counts × 3 rates; the AutoPlace batch runs
	// each distributed job twice (block start and searched placement).
	cm := workload.DefaultCostModel()
	w.tasks = 0
	for _, r := range experiments.Fig4Requests(workload.Small, bench.All()) {
		w.tasks += len(r.Job.Tasks)
	}
	for _, b := range bench.SharedMemory() {
		w.tasks += 15 * len(b.BuildJob(workload.Small, 1, cm).Tasks)
	}
	for _, b := range bench.DistributedSet() {
		for _, n := range []int{4, 8, 16, 32, 64} {
			w.tasks += 3 * len(b.BuildJob(workload.Small, n, cm).Tasks)
		}
		w.tasks += 2 * len(b.BuildJob(workload.Small, placeNodes, cm).Tasks)
	}
	w.jobs = map[string]cluster.Job{}
	for _, r := range w.placeRequests(0) {
		w.jobs[r.Job.Name] = r.Job
	}
	w.rng = seeded(w.e.seed, streamSweep)
	return nil
}

// sweepOp is one generated regeneration.
type sweepOp struct {
	order     []int // batch order: 0 fig4, 1 fig5, 2 fig6, 3 autoplace
	placeSeed uint64
}

func (w *sweepWL) next() sweepOp {
	return sweepOp{order: w.rng.Perm(4), placeSeed: w.rng.Uint64()}
}

func (w *sweepWL) measure(d time.Duration, l *layers) (*phase, error) {
	p := &phase{}
	w.simWorse = 0
	var figs [3]float64
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		lat, got, ok := w.op(w.next(), l)
		p.attempted++
		if !ok {
			p.failed++
		}
		p.lat = append(p.lat, ms(lat))
		p.rates = append(p.rates, float64(w.tasks)/lat.Seconds())
		figs = got
		l.opDone()
	}
	p.note("sim_tasks_per_s", p.throughput(), "1/s")
	p.note("fig4_overhead_pct", figs[0], "%")
	p.note("fig5_speedup_16", figs[1], "x")
	p.note("fig6_speedup_1024", figs[2], "x")
	p.note("autoplace_sim_worse", float64(w.simWorse), "runs")
	return p, nil
}

// op regenerates every figure once on a fresh engine and checks the results
// after the clock stops.
func (w *sweepWL) op(op sweepOp, l *layers) (time.Duration, [3]float64, bool) {
	rec := l.recorder()
	id := rec.newOp()
	eng := sweep.New(sweep.Options{Workers: 2})
	ctx := context.Background()
	var figs [3]float64
	var errs []error
	var placed, start []sweep.Response
	var metrics []sweep.Metrics

	t0 := time.Now()
	root := rec.begin(id, -1, "op.sweep")
	for _, b := range op.order {
		switch b {
		case 0:
			s := rec.begin(id, root, "sweep.fig4_batch")
			j := rec.begin(id, s, "bench.build_job")
			reqs := experiments.Fig4Requests(workload.Small, bench.All())
			rec.end(j)
			bt := time.Now()
			resps, err := eng.RunBatch(ctx, reqs)
			rec.end(s)
			errs = append(errs, err)
			if err == nil {
				figs[0] = fig4Overhead(resps)
			}
			metrics = append(metrics, traceBatch(l, id, s, bt, reqs, resps)...)
		case 1:
			s := rec.begin(id, root, "experiments.fig5")
			pts, _, err := experiments.Fig5(eng, workload.Small)
			rec.end(s)
			errs = append(errs, err)
			figs[1] = meanSpeedup(pts, 16)
		case 2:
			s := rec.begin(id, root, "experiments.fig6")
			pts, _, err := experiments.Fig6(eng, workload.Small)
			rec.end(s)
			errs = append(errs, err)
			figs[2] = meanSpeedup(pts, 1024)
		case 3:
			s := rec.begin(id, root, "sweep.autoplace_batch")
			j := rec.begin(id, s, "bench.build_job")
			reqs := w.placeRequests(op.placeSeed)
			rec.end(j)
			bt := time.Now()
			resps, err := eng.RunBatch(ctx, reqs)
			rec.end(s)
			errs = append(errs, err)
			if err == nil {
				start, placed = resps[:len(resps)/2], resps[len(resps)/2:]
			}
			metrics = append(metrics, traceBatch(l, id, s, bt, reqs, resps)...)
			if l != nil {
				w.traceOptimize(l, id, root, reqs[len(reqs)/2:])
			}
		}
	}
	lat := time.Since(t0)
	rec.end(root)

	if l != nil {
		st := eng.Stats()
		l.add("sweep.hits", float64(st.Hits))
		l.add("sweep.misses", float64(st.Misses))
		l.add("sweep.coalesced", float64(st.Coalesced))
		l.add("sweep.requests", float64(len(metrics)))
		for _, m := range metrics {
			l.add("sweep.queue_total_ms", ms(m.QueueWait))
			l.add("sweep.lookup_total_ms", ms(m.CacheLookup))
		}
	}

	ok := true
	for _, err := range errs {
		if err != nil {
			ok = false
			w.e.failf("sweep: %v", err)
		}
	}
	want := [3]float64{wantFig4OverheadPct, wantFig5Speedup16, wantFig6Speedup1024}
	for i, name := range []string{"fig4_overhead_pct", "fig5_speedup_16", "fig6_speedup_1024"} {
		if figs[i] != want[i] {
			ok = false
			w.e.failf("sweep: %s = %v, recorded %v", name, figs[i], want[i])
		}
	}
	if len(placed) == 0 {
		ok = false
		w.e.failf("sweep: AutoPlace batch produced no results")
	}
	for i := range placed {
		if !w.checkPlacement(placed[i], start[i]) {
			ok = false
		}
	}
	return lat, figs, ok
}

// checkPlacement checks what AutoPlace promises: the searched placement
// prices the job's traffic no worse than the block topology it started
// from. The simulated makespan, which the search does not price, is only
// counted when it comes out worse than the start's.
func (w *sweepWL) checkPlacement(placed, start sweep.Response) bool {
	name := placed.Metrics.Name
	if placed.Result.Makespan > start.Result.Makespan {
		w.simWorse++
	}
	prof, err := cluster.JobProfile(w.jobs[name], placeNodes)
	if err != nil {
		w.e.failf("sweep: profile %s: %v", name, err)
		return false
	}
	got, err := place.Evaluate(prof, placed.Result.Placement)
	if err != nil {
		w.e.failf("sweep: price %s placement: %v", name, err)
		return false
	}
	base, err := place.Evaluate(prof, w.block)
	if err != nil {
		w.e.failf("sweep: price %s block start: %v", name, err)
		return false
	}
	if got.Makespan > base.Makespan {
		w.e.failf("sweep: %s AutoPlace prices its traffic at %d ns, the block start at %d ns", name, got.Makespan, base.Makespan)
		return false
	}
	return true
}

// placeRequests builds the AutoPlace batch: each distributed job on the
// block topology as given, then the same job with the placement searched.
func (w *sweepWL) placeRequests(seed uint64) []sweep.Request {
	cm := workload.DefaultCostModel()
	var start, placed []sweep.Request
	for _, b := range bench.DistributedSet() {
		job := b.BuildJob(workload.Small, placeNodes, cm)
		cfg := cluster.Config{Nodes: placeNodes, CoresPerNode: 16, Topo: w.block}
		start = append(start, sweep.Request{Job: job, Config: cfg})
		cfg.AutoPlace = &place.Options{Seed: seed}
		placed = append(placed, sweep.Request{Job: job, Config: cfg})
	}
	return append(start, placed...)
}

// traceOptimize times place.Optimize on the same job profiles the AutoPlace
// requests search, since the search itself runs inside cluster.Run.
func (w *sweepWL) traceOptimize(l *layers, id int64, parent int, reqs []sweep.Request) {
	for _, r := range reqs {
		prof, err := cluster.JobProfile(r.Job, placeNodes)
		if err != nil {
			w.e.failf("sweep: profile %s: %v", r.Job.Name, err)
			continue
		}
		s := l.rec.begin(id, parent, "place.optimize")
		_, err = place.Optimize(prof, w.block, *r.Config.AutoPlace)
		l.rec.end(s)
		if err != nil {
			w.e.failf("sweep: optimize %s: %v", r.Job.Name, err)
		}
	}
}

// traceBatch records a batch's per-request engine stages as spans under the
// batch span, plus the simulator's own counters. RunBatch enqueues every
// request when it starts, so a request's stages begin QueueWait after it.
func traceBatch(l *layers, id int64, parent int, start time.Time, reqs []sweep.Request, resps []sweep.Response) []sweep.Metrics {
	if l == nil {
		return nil
	}
	ms := sweep.BatchMetrics(resps)
	for i, m := range ms {
		at := l.rec.at(start) + m.QueueWait
		l.rec.add(id, parent, "sweep.lookup", at, at+m.CacheLookup)
		at += m.CacheLookup
		l.rec.add(id, parent, "cluster.sim", at, at+m.Sim)
		l.add("cluster.sim_tasks", float64(len(reqs[i].Job.Tasks)))
		l.add("cluster.messages", float64(resps[i].Result.Messages))
		l.add("cluster.wire_bytes", float64(resps[i].Result.WireBytes))
	}
	return ms
}

// fig4Overhead is Fig4's AVERAGE row: the mean complete-replication
// overhead over the base run of each benchmark (three requests per bench).
func fig4Overhead(resps []sweep.Response) float64 {
	var ovs []float64
	for i := 0; i+2 < len(resps); i += 3 {
		ovs = append(ovs, resps[i+1].Result.OverheadPct(resps[i].Result))
	}
	return mean(ovs)
}

// meanSpeedup averages the fault-free speedups at the given core count.
func meanSpeedup(pts []experiments.ScalingPoint, cores int) float64 {
	var sp []float64
	for _, p := range pts {
		if p.Cores == cores && p.Rate == 0 {
			sp = append(sp, p.Speedup)
		}
	}
	return mean(sp)
}
