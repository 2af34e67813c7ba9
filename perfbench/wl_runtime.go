package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/core"
	"appfit/internal/fault"
	"appfit/internal/fit"
	"appfit/internal/rt"
	"appfit/internal/trace"
	"appfit/internal/vote"
)

// runtimeApps are the Table-I apps the runtime workload runs on the real
// engine: stream is thousands of sub-millisecond tasks (engine-bound),
// cholesky and matmul are kernel-bound.
var runtimeApps = []string{"sparselu", "cholesky", "stream", "matmul", "linpack"}

// rtApp is one app with what its dry pass found.
type rtApp struct {
	w         workload.Workload
	threshold float64 // the app's FIT at 1× rates
	maxFIT    float64 // the largest task FIT at 10× rates
	tasks     int
	boost     float64 // fault acceleration
}

// runtimeWL runs the apps one at a time on an rt.Runtime with 2 workers, in
// two passes: plain (ReplicateNone, no faults) and appfit (App_FIT at 10×
// rates under seeded accelerated faults). An operation is one round: every
// (app, pass) pair once, in the order the seed picks, with fault seeds drawn
// from it too. Timing whole rounds keeps the mix of apps the same in every
// sample, so the latency percentiles do not depend on which app lands where.
type runtimeWL struct {
	e    *env
	apps []rtApp
	rng  *rand.Rand
}

func newRuntimeWorkload(e *env) runner { return &runtimeWL{e: e} }

func (r *runtimeWL) close() error { return nil }

func (r *runtimeWL) setup() error {
	r.apps = nil
	base := fit.Roadrunner()
	for _, name := range runtimeApps {
		w, err := bench.ByName(name)
		if err != nil {
			return err
		}
		tr := trace.New()
		dry := rt.New(rt.Config{Workers: 2, Rates: base, RatesSet: true, Tracer: tr})
		verify := w.BuildRT(dry, workload.Small)
		if err := dry.Shutdown(); err != nil {
			return fmt.Errorf("%s dry pass: %w", name, err)
		}
		if err := verify(); err != nil {
			return fmt.Errorf("%s dry pass: %w", name, err)
		}
		a := rtApp{w: w, tasks: tr.Len()}
		for _, rec := range tr.Records() {
			a.threshold += rec.FITDue + rec.FITSdc
			a.maxFIT = max(a.maxFIT, 10*(rec.FITDue+rec.FITSdc))
		}
		// The adaptive acceleration of experiments.Reliability: about 5%
		// fault probability per attempt at the mean task FIT under 10×
		// rates.
		a.boost = 1e9
		if p := fit.FailureProb(10*a.threshold/float64(a.tasks), 1); p > 0 {
			a.boost = 0.05 / p
		}
		r.apps = append(r.apps, a)
	}
	r.rng = seeded(r.e.seed, streamRuntime)
	return nil
}

// rtOp is one generated operation: which app, which pass, which fault seed.
type rtOp struct {
	app       int
	appfit    bool
	faultSeed uint64
}

// round draws the next ten operations: every (app, pass) once, in seeded
// order, so each round runs the same mix.
func (r *runtimeWL) round() []rtOp {
	ops := make([]rtOp, 0, 2*len(r.apps))
	for _, k := range r.rng.Perm(2 * len(r.apps)) {
		ops = append(ops, rtOp{app: k / 2, appfit: k%2 == 1, faultSeed: r.rng.Uint64()})
	}
	return ops
}

// rtTally accumulates one pass's operations.
type rtTally struct {
	tasks   uint64
	time    time.Duration
	replPct []float64
}

func (r *runtimeWL) measure(d time.Duration, l *layers) (*phase, error) {
	p := &phase{}
	var plain, appfit rtTally
	budget, over := 0.0, 0
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		var lat time.Duration
		var tasks uint64
		ok := true
		for _, op := range r.round() {
			res := r.op(op, l)
			ok = ok && res.ok
			lat += res.lat
			tasks += res.st.Completed
			t := &plain
			if op.appfit {
				t = &appfit
				t.replPct = append(t.replPct, res.st.PctTasksReplicated())
				budget = max(budget, res.budgetPct)
				if res.budgetPct > 100 {
					over++
				}
			}
			t.tasks += res.st.Completed
			t.time += res.lat
		}
		p.attempted++
		if !ok {
			p.failed++
		}
		p.lat = append(p.lat, ms(lat))
		p.rates = append(p.rates, float64(tasks)/lat.Seconds())
		l.opDone()
	}
	p.note("appfit_tasks_per_s", float64(appfit.tasks)/appfit.time.Seconds(), "1/s")
	p.note("plain_tasks_per_s", float64(plain.tasks)/plain.time.Seconds(), "1/s")
	p.note("appfit_replicated_pct", mean(appfit.replPct), "%")
	p.note("fit_budget_pct_max", budget, "%")
	p.note("fit_budget_over_100", float64(over), "runs")
	if l != nil {
		l.peak("core.fit_budget_pct", budget)
		l.peak("core.replicated_pct", mean(appfit.replPct))
	}
	return p, nil
}

type rtResult struct {
	lat       time.Duration
	st        rt.Stats
	ok        bool
	budgetPct float64
}

// op runs one app once and checks it. The timed part is BuildRT plus
// Shutdown; verification runs after the clock stops.
func (r *runtimeWL) op(op rtOp, l *layers) rtResult {
	a := r.apps[op.app]
	rec := l.recorder()
	id := rec.newOp()
	cfg := rt.Config{Workers: 2, Selector: core.ReplicateNone{}}
	var sel *core.AppFIT
	if op.appfit {
		sel = core.NewAppFIT(a.threshold, a.tasks)
		inj := fault.NewSeeded(op.faultSeed)
		inj.Boost = a.boost
		cfg.Selector = l.selector(sel)
		cfg.Rates, cfg.RatesSet = fit.Roadrunner().Scale(10), true
		cfg.Injector = l.injector(inj)
	}
	var tr *trace.Tracer
	if l != nil {
		tr = trace.New()
		cfg.Tracer = tr
		cfg.Comparator = l.comparator(vote.Bitwise{})
	}

	t0 := time.Now()
	root := rec.begin(id, -1, "op.runtime")
	m := rt.New(cfg)
	var smp *sampler
	if l != nil {
		smp = sample(time.Millisecond, m.ReadyPending)
	}
	s := rec.begin(id, root, "bench.build_rt")
	verify := a.w.BuildRT(m, workload.Small)
	rec.end(s)
	s = rec.begin(id, root, "rt.shutdown")
	errShut := m.Shutdown()
	rec.end(s)
	res := rtResult{lat: time.Since(t0), st: m.Stats(), ok: true}
	if smp != nil {
		smp.finish()
		l.add("sched.ready_samples", smp.n)
		l.add("sched.ready_sum", smp.sum)
	}
	s = rec.begin(id, root, "bench.verify")
	errVer := verify()
	rec.end(s)
	rec.end(root)

	name := a.w.Name()
	if !op.appfit {
		if errShut != nil || errVer != nil {
			res.ok = false
			r.e.failf("runtime %s plain: shutdown %v, verify %v", name, errShut, errVer)
		}
	} else {
		// An escaped SDC is the risk App_FIT accepts by design; an error it
		// does not explain is a failure.
		if (errShut != nil || errVer != nil) && res.st.UnprotectedSDC == 0 {
			res.ok = false
			r.e.failf("runtime %s appfit: shutdown %v, verify %v with no unprotected SDC", name, errShut, errVer)
		}
		// App_FIT adds a task's FIT when it finishes, so a decision cannot
		// see the unreplicated task running beside it on the other worker:
		// the documented bound is the threshold plus one task per extra
		// worker.
		res.budgetPct = 100 * sel.CurrentFIT() / sel.Threshold()
		if limit := sel.Threshold() + float64(cfg.Workers-1)*a.maxFIT; sel.CurrentFIT() > limit {
			res.ok = false
			r.e.failf("runtime %s appfit: unprotected FIT %.6g above the bound %.6g", name, sel.CurrentFIT(), limit)
		}
	}
	if l != nil {
		addRecords(l, tr)
		addStats(l, res.st)
	}
	return res
}

// addRecords sums a task trace's execution times.
func addRecords(l *layers, tr *trace.Tracer) {
	for _, rc := range tr.Records() {
		l.add("rt.replica_ms", ms(rc.ReplicaDur))
		l.add("rt.reexec_ms", ms(rc.ReexecDur))
		l.add("kern.primary_ms", ms(rc.Duration))
	}
}

// addStats records an rt.Stats snapshot's counters.
func addStats(l *layers, st rt.Stats) {
	l.add("rt.replicated", float64(st.Replicated))
	l.add("rt.sdc_detected", float64(st.SDCDetected))
	l.add("rt.due_recovered", float64(st.DUERecovered))
	l.add("rt.reexecutions", float64(st.Reexecutions))
	l.add("rt.vote_failures", float64(st.VoteFailures))
	l.add("rt.unprotected_sdc", float64(st.UnprotectedSDC))
	l.add("ckpt.saves", float64(st.Checkpoint.Saves))
	l.add("ckpt.bytes_saved", float64(st.Checkpoint.BytesSaved))
	l.add("ckpt.restores", float64(st.Checkpoint.Restores))
	l.peak("ckpt.peak_live_bytes", float64(st.Checkpoint.PeakLive))
	l.add("deps.edges", float64(st.DepEdges))
}
