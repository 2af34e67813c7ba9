package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os/exec"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"appfit/internal/bench"
	"appfit/internal/cluster"
	"appfit/internal/serve"
	"appfit/internal/serve/httpapi"
)

const (
	baseRate  = 200.0                  // requests (job specs) per second at which latency is reported
	perSub    = 10                     // requests per submission: nine hits and one miss
	lightOf   = 4                      // one submission in four comes from the weight-1 tenant
	missRate  = 0.01                   // per-task fault rate of a miss spec
	conns     = 2                      // generator connections
	satWindow = 500 * time.Millisecond // the closed loop's rate is a median over windows this long
	cycles    = 6                      // open/closed loop turns of an untraced run
	warmUp    = time.Second            // untimed open loop before a measurement
	abortLag  = 250 * time.Millisecond
)

// serveWL drives cmd/appfitd, run as its own process on loopback so the
// generator's garbage collection does not land in server latencies. Requests
// travel perSub to a submission (one POST /submit). Two tenants, weights 3:1,
// are fed 3:1. 90% of requests repeat a warmed pool of 18 small specs (cache
// hits); 10% are unreplicated faulty specs with a fresh seed (misses).
// Submission latency is measured open loop on a seeded Poisson schedule at
// baseRate requests per second; throughput is measured closed loop with every
// connection kept busy, the service's capacity on the same mix. An untraced
// run alternates the two, seven tenths of each turn open loop.
//
// A submission of ten keeps the server's work, not the loopback round trip,
// the bulk of what is timed: a lone cache hit spends about 0.3 ms in the
// daemon and 0.8 ms in HTTP, JSON and waking the processes on either side of
// the socket.
type serveWL struct {
	e      *env
	cmd    *exec.Cmd
	exited chan error
	stderr *bytes.Buffer // the daemon's log, shown when it fails
	client *httpapi.Client
	hits   []httpapi.JobSpec
	hitRef []int64
	tasks  map[string]int // simulated tasks per bench at small scale
	rng    *rand.Rand
}

func newServeWorkload(e *env) runner { return &serveWL{e: e} }

func (w *serveWL) setup() error {
	if err := w.close(); err != nil {
		return err
	}
	if w.e.daemon == "" {
		return errors.New("serve workload needs -daemon")
	}
	w.hits, w.hitRef, w.tasks = nil, nil, map[string]int{}
	for _, b := range bench.All() {
		for _, repl := range []bool{false, true} {
			spec := httpapi.JobSpec{Bench: b.Name(), Scale: "small", Replicate: repl}
			ref, n, err := directRun(spec)
			if err != nil {
				return err
			}
			w.hits = append(w.hits, spec)
			w.hitRef = append(w.hitRef, ref)
			w.tasks[b.Name()] = n
		}
	}
	if err := w.start(); err != nil {
		return err
	}
	for i, spec := range w.hits {
		resp, err := w.client.Submit(context.Background(), "heavy", []httpapi.JobSpec{spec})
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if r := resp.Results[0]; r.Err != "" || r.MakespanNS != w.hitRef[i] {
			return fmt.Errorf("warm-up %s: makespan %d, direct run %d, err %q", spec.Bench, r.MakespanNS, w.hitRef[i], r.Err)
		}
	}
	w.rng = seeded(w.e.seed, streamServe)
	// The system under test runs in the daemon; this process only
	// generates load, and a rarer collection here means fewer pauses
	// landing in the latencies it measures.
	debug.SetGCPercent(400)
	return nil
}

// directRun simulates a spec in-process, the reference a response must match.
func directRun(spec httpapi.JobSpec) (makespan int64, tasks int, err error) {
	req, err := spec.Request()
	if err != nil {
		return 0, 0, err
	}
	res, err := cluster.Run(req.Job, req.Config)
	if err != nil {
		return 0, 0, fmt.Errorf("direct run of %s: %w", spec.Bench, err)
	}
	return int64(res.Makespan), len(req.Job.Tasks), nil
}

// start boots the daemon on a free loopback port and waits for /healthz.
func (w *serveWL) start() error {
	cmd := exec.Command(w.e.daemon, "-addr", "127.0.0.1:0", "-tenants", "heavy=3,light=1", "-workers", "2")
	w.stderr = new(bytes.Buffer)
	cmd.Stderr = w.stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start appfitd: %w", err)
	}
	w.cmd = cmd
	w.exited = make(chan error, 1)
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if u, ok := strings.CutPrefix(sc.Text(), "appfitd: listening on "); ok {
				addr <- u
			}
		}
		w.exited <- cmd.Wait()
	}()
	select {
	case u := <-addr:
		w.client = &httpapi.Client{Base: u, HTTP: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		}}
	case err := <-w.exited:
		w.cmd = nil
		return fmt.Errorf("appfitd exited before listening: %v\n%s", err, w.stderr)
	case <-time.After(30 * time.Second):
		return errors.New("appfitd did not print its address")
	}
	for t0 := time.Now(); !w.client.Healthy(context.Background()); time.Sleep(2 * time.Millisecond) {
		if time.Since(t0) > 30*time.Second {
			return errors.New("appfitd not healthy")
		}
	}
	return nil
}

// close drains and stops the daemon; appfitd exits non-zero when the drain
// fails or its books do not balance.
func (w *serveWL) close() error {
	if w.cmd == nil {
		return nil
	}
	cmd := w.cmd
	w.cmd = nil
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("stop appfitd: %w", err)
	}
	select {
	case err := <-w.exited:
		if err != nil {
			return fmt.Errorf("appfitd drain: %w\n%s", err, w.stderr)
		}
		return nil
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		<-w.exited
		return errors.New("appfitd did not drain within 60 s")
	}
}

// serveReq is one generated request.
type serveReq struct {
	tenant string
	spec   httpapi.JobSpec
	hit    int // index into the warm pool, -1 for a miss
}

// serveResp is what came back for one request.
type serveResp struct {
	sent, done time.Time
	res        httpapi.Result
	err        error
}

// requests draws the tenant and spec of the requests of subs submissions.
// Every submission holds one miss at a seeded position, and every block of
// lightOf submissions one from the light tenant. The hits walk the 18 pool
// specs and the misses the 9 benches (unreplicated, faulty, fresh seed) in
// seeded permutations: every run sends the same mix, in its own order. A
// fixed mix keeps the percentiles inside one class of submission instead of
// on the edge between two, where a few submissions more or less would move
// them.
func (w *serveWL) requests(subs int) []serveReq {
	out := make([]serveReq, subs*perSub)
	var hits, misses []int
	missAt, lightAt := 0, 0
	for i := range out {
		sub := i / perSub
		if i%perSub == 0 {
			missAt = i + w.rng.IntN(perSub)
			if sub%lightOf == 0 {
				lightAt = sub + w.rng.IntN(lightOf)
			}
		}
		r := serveReq{tenant: "heavy", hit: -1}
		if sub == lightAt {
			r.tenant = "light"
		}
		if i == missAt {
			if len(misses) == 0 {
				misses = w.rng.Perm(len(w.hits) / 2)
			}
			h := w.hits[2*misses[0]]
			misses = misses[1:]
			r.spec = httpapi.JobSpec{Bench: h.Bench, Scale: h.Scale, Rate: missRate, Seed: w.rng.Uint64() | 1}
		} else {
			if len(hits) == 0 {
				hits = w.rng.Perm(len(w.hits))
			}
			r.hit, hits = hits[0], hits[1:]
			r.spec = w.hits[r.hit]
		}
		out[i] = r
	}
	return out
}

// batch is one run of generated submissions and what came back. Submission
// i (shot i) carries requests perSub·i to perSub·(i+1)−1.
type batch struct {
	reqs  []serveReq
	resps []serveResp
	shots []shot
}

func newBatch(reqs []serveReq) *batch {
	return &batch{reqs: reqs, resps: make([]serveResp, len(reqs))}
}

// send makes submission i of b and keeps what came back.
func (w *serveWL) send(b *batch, i int) {
	reqs, resps := b.reqs[i*perSub:(i+1)*perSub], b.resps[i*perSub:(i+1)*perSub]
	specs := make([]httpapi.JobSpec, len(reqs))
	for j, q := range reqs {
		specs[j] = q.spec
	}
	sent := time.Now()
	resp, err := w.client.Submit(context.Background(), reqs[0].tenant, specs)
	done := time.Now()
	if err == nil && len(resp.Results) != len(specs) {
		err = fmt.Errorf("%d results for %d requests", len(resp.Results), len(specs))
	}
	for j := range resps {
		resps[j] = serveResp{sent: sent, done: done, err: err}
		if err == nil {
			resps[j].res = resp.Results[j]
		}
	}
}

// fire runs the open loop at baseRate requests per second for d.
func (w *serveWL) fire(d time.Duration) *batch {
	sched := poisson(w.rng, baseRate/perSub, d)
	b := newBatch(w.requests(len(sched)))
	b.shots = openLoop(time.Now().Add(5*time.Millisecond), sched, conns, abortLag, func(i int) { w.send(b, i) })
	return b
}

// saturate runs the closed loop for d, each connection sending its next
// submission as soon as the last one returns, and returns when it started.
func (w *serveWL) saturate(d time.Duration) (*batch, time.Time) {
	const ceiling = 10000 // req/s; more than two connections can reach
	n := int(ceiling * d.Seconds() / perSub)
	b := newBatch(w.requests(n))
	t0 := time.Now()
	b.shots = closedLoop(t0.Add(d), n, conns, func(i int) { w.send(b, i) })
	return b, t0
}

// windowRates counts the requests of the submissions completed in each whole
// window of the d after start and returns them as rates per second.
func windowRates(shots []shot, start time.Time, d, window time.Duration) []float64 {
	counts := make([]float64, d/window)
	for _, s := range shots {
		if k := int(s.Due.Add(s.Latency).Sub(start) / window); s.Sent && k < len(counts) {
			counts[k] += perSub
		}
	}
	for k := range counts {
		counts[k] /= window.Seconds()
	}
	return counts
}

// check counts sent requests and failed ones. Hits are checked against the
// set-up references; misses against a direct run made here, after the
// clock has stopped.
func (w *serveWL) check(b *batch) (sent, failed int) {
	for i, r := range b.resps {
		if !b.shots[i/perSub].Sent {
			continue
		}
		sent++
		q := b.reqs[i]
		want := int64(0)
		var err error
		if q.hit >= 0 {
			want = w.hitRef[q.hit]
		} else {
			want, _, err = directRun(q.spec)
		}
		switch {
		case r.err != nil:
			err = r.err
		case r.res.Err != "":
			err = errors.New(r.res.Err)
		case err == nil && r.res.MakespanNS != want:
			err = fmt.Errorf("makespan %d, direct run %d", r.res.MakespanNS, want)
		}
		if err != nil {
			failed++
			w.e.failf("serve %s %+v: %v", q.tenant, q.spec, err)
		}
	}
	return sent, failed
}

func latencies(b *batch) []float64 {
	var lat []float64
	for _, s := range b.shots {
		if s.Sent {
			lat = append(lat, ms(s.Latency))
		}
	}
	return lat
}

func (w *serveWL) measure(d time.Duration, l *layers) (*phase, error) {
	p := &phase{}
	p.attempted, p.failed = w.check(w.fire(warmUp))
	if l != nil {
		before, err := w.client.Stats(context.Background())
		if err != nil {
			return nil, err
		}
		depth := sample(10*time.Millisecond, func() int {
			st, err := w.client.Stats(context.Background())
			if err != nil {
				return 0
			}
			return st.Queued
		})
		base := w.fire(d)
		depth.finish()
		w.checkBase(p, base)
		w.traceBatch(l, base, before, depth)
	} else {
		// Open and closed loop take turns, so each of them samples the
		// whole run and a few slow seconds of a shared host land in both
		// instead of in all of one.
		open := d * 7 / 10 / cycles
		closed := d/cycles - open
		for c := 0; c < cycles; c++ {
			w.checkBase(p, w.fire(open))
			sat, start := w.saturate(closed)
			s, f := w.check(sat)
			p.attempted += s
			p.failed += f
			p.rates = append(p.rates, windowRates(sat.shots, start, closed, satWindow)...)
		}
		p.note("saturation_rps", p.throughput(), "req/s")
	}
	tp := tailPercentile(len(p.lat))
	p.note("submit_p50_ms", median(p.lat), "ms")
	p.note(fmt.Sprintf("submit_p%g_ms", tp), percentile(p.lat, tp), "ms")

	st, err := w.client.Stats(context.Background())
	if err != nil {
		return nil, err
	}
	if err := st.Accounting(); err != nil {
		p.failed++
		w.e.failf("serve: %v", err)
	}
	return p, nil
}

// checkBase checks one open-loop batch and adds it to p. A request dropped
// behind the backlog counts as failed.
func (w *serveWL) checkBase(p *phase, b *batch) {
	s, f := w.check(b)
	p.attempted += s
	p.failed += f
	lat := latencies(b)
	p.lat = append(p.lat, lat...)
	if dropped := perSub * (len(b.shots) - len(lat)); dropped > 0 {
		p.failed += dropped
		p.attempted += dropped
		w.e.failf("serve: %d requests dropped at the base rate", dropped)
	}
}

// traceBatch records the base-rate submissions as spans (generator wait,
// wire round trip, and each request's stages on the server from the wire
// metrics) plus the service counters.
func (w *serveWL) traceBatch(l *layers, b *batch, before *serve.Stats, depth *sampler) {
	rec := l.rec
	var adm, que [2][]float64 // [hit, miss]
	var rtt, wire []float64
	lag := 0.0
	for i, s := range b.shots {
		resps := b.resps[i*perSub : (i+1)*perSub]
		if !s.Sent || resps[0].err != nil {
			continue
		}
		sent, done := resps[0].sent, resps[0].done
		id := rec.newOp()
		root := rec.add(id, -1, "op.serve", rec.at(s.Due), rec.at(done))
		round := rec.add(id, root, "httpapi.roundtrip", rec.at(sent), rec.at(done))
		rt := done.Sub(sent)
		var handled time.Duration // the server's time on the submission
		for j, r := range resps {
			m := r.res.Metrics
			handled = max(handled, m.Total)
			// The server's clock is another process's; centre each
			// request's handling inside the round trip.
			at := rec.at(sent) + (rt-m.Total)/2
			h := rec.add(id, round, "serve.handle", at, at+m.Total)
			for _, st := range []struct {
				name string
				d    time.Duration
			}{{"serve.admission", m.AdmissionWait}, {"serve.queue", m.QueueWait}, {"sweep.lookup", m.CacheLookup}, {"cluster.sim", m.Sim}} {
				rec.add(id, h, st.name, at, at+st.d)
				at += st.d
			}
			k := 1
			if m.CacheHit {
				k = 0
			} else {
				l.add("cluster.sim_tasks", float64(w.tasks[b.reqs[i*perSub+j].spec.Bench]))
			}
			adm[k] = append(adm[k], ms(m.AdmissionWait))
			que[k] = append(que[k], ms(m.QueueWait))
			l.add("sweep.requests", 1)
			l.add("sweep.lookup_total_ms", ms(m.CacheLookup))
		}
		rtt = append(rtt, ms(rt))
		wire = append(wire, ms(rt-handled))
		lag = max(lag, ms(s.Lag))
		l.opDone()
	}
	for k, kind := range []string{"hit", "miss"} {
		l.peak("serve.admission_"+kind+"_p50_ms", median(adm[k]))
		l.peak("serve.admission_"+kind+"_tail_ms", percentile(adm[k], tailPercentile(len(adm[k]))))
		l.peak("serve.queue_"+kind+"_p50_ms", median(que[k]))
		l.peak("serve.queue_"+kind+"_tail_ms", percentile(que[k], tailPercentile(len(que[k]))))
	}
	l.peak("httpapi.roundtrip_ms", median(rtt))
	l.peak("httpapi.wire_ms", median(wire))
	l.peak("loadgen.lag_ms_max", lag)
	l.peak("serve.queue_depth_max", depth.max)

	after, err := w.client.Stats(context.Background())
	if err != nil {
		w.e.failf("serve: stats: %v", err)
		return
	}
	var sum [4]float64
	heavy := 0.0
	for i, t := range after.Tenants {
		o := before.Tenants[i]
		d := [4]float64{float64(t.Admitted - o.Admitted), float64(t.Rejected - o.Rejected),
			float64(t.Completed - o.Completed), float64(t.Failed - o.Failed)}
		for j := range sum {
			sum[j] += d[j]
		}
		if t.Tenant == "heavy" {
			heavy = d[2]
		}
	}
	l.peak("serve.admitted", sum[0])
	l.peak("serve.rejected", sum[1])
	l.peak("serve.completed", sum[2])
	l.peak("serve.failed", sum[3])
	if sum[2] > 0 {
		l.peak("serve.heavy_share", heavy/sum[2])
	}
	l.add("sweep.hits", float64(after.Engine.Hits-before.Engine.Hits))
	l.add("sweep.misses", float64(after.Engine.Misses-before.Engine.Misses))
	l.add("sweep.coalesced", float64(after.Engine.Coalesced-before.Engine.Coalesced))
}
