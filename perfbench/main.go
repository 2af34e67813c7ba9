// Command perfbench is the repository's end-to-end benchmark. It drives the
// App_FIT system from outside, through the packages' public functions, on one
// of four seeded workloads, checks every output, and prints the metrics named
// in BENCHMARK.json; the last line of standard output is one JSON object.
//
//	perfbench -workload runtime -seed 1 -seconds 30 -trace 0 -daemon path/to/appfitd
//
// With -trace 1 it measures half the time untraced and half with spans and
// counting seams installed, and prints the per-layer metrics instead. See
// README.md for the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupRounds is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up does not move it.
const setupRounds = 5

// runner is one benchmark workload.
type runner interface {
	// setup prepares everything the timed operations need. It is called
	// setupRounds times; each call replaces what the previous one made.
	setup() error
	// measure runs operations for about d and reports them. A nil l runs
	// untraced.
	measure(d time.Duration, l *layers) (*phase, error)
	// close releases what setup made and reports a failure found doing so.
	close() error
}

// phase is what one measurement produced.
type phase struct {
	lat               []float64 // operation latencies, ms
	attempted, failed int
	rates             []float64 // work units (tasks, requests) per second, per operation or window
	notes             []note    // workload-specific figures for the report
}

type note struct {
	name  string
	value float64
	unit  string
}

func (p *phase) note(name string, v float64, unit string) {
	p.notes = append(p.notes, note{name, v, unit})
}

// throughput is the median work rate, so a few operations slowed by
// something outside the program do not move it.
func (p *phase) throughput() float64 { return median(p.rates) }

// env is what every workload shares: its seed, where to report, and the
// failed-check log.
type env struct {
	seed   uint64
	daemon string
	traced bool // the run reports per-layer metrics
	out    io.Writer

	mu      sync.Mutex
	printed int // guarded by mu
}

// failf reports one failed output check. The caller counts it.
func (e *env) failf(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.printed < 20 {
		fmt.Fprintf(e.out, "check failed: "+format+"\n", args...)
	}
	e.printed++
}

var workloads = map[string]func(*env) runner{
	"runtime": newRuntimeWorkload,
	"sweep":   newSweepWorkload,
	"serve":   newServeWorkload,
	"world":   newWorldWorkload,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: runtime, sweep, serve or world")
	seed := fs.Uint64("seed", 1, "seed every generated input is drawn from")
	seconds := fs.Int("seconds", 30, "measured seconds")
	traced := fs.Int("trace", 0, "1 measures the per-layer metrics")
	daemon := fs.String("daemon", "", "appfitd binary (serve workload)")
	traceDir := fs.String("trace-dir", ".", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	e := &env{seed: *seed, daemon: *daemon, traced: *traced == 1, out: stdout}
	w := mk(e)
	defer w.close() // for the error returns; a no-op after the close below

	var setups []float64
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(stdout, "%s seed %d: setup %.3f s (median of %d)\n", *name, *seed, median(setups), setupRounds)

	d := time.Duration(*seconds) * time.Second
	res := result{}
	if *traced == 0 {
		p, err := w.measure(d, nil)
		if err != nil {
			return err
		}
		if err := w.close(); err != nil {
			p.attempted++
			p.failed++
			e.failf("%v", err)
		}
		report(stdout, p)
		res.Attempted, res.Failed = p.attempted, p.failed
		res.Metrics = endToEnd(p)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	} else {
		base, err := w.measure(d/2, nil)
		if err != nil {
			return err
		}
		l := newLayers()
		p, err := w.measure(d/2, l)
		if err != nil {
			return err
		}
		res.Attempted, res.Failed = base.attempted+p.attempted, base.failed+p.failed
		if err := w.close(); err != nil {
			res.Attempted++
			res.Failed++
			e.failf("%v", err)
		}
		spans := l.rec.snapshot()
		path := filepath.Join(*traceDir, fmt.Sprintf("perfbench-trace-%s-%d.jsonl", *name, *seed))
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		ov := 100 * (median(p.lat)/median(base.lat) - 1)
		fmt.Fprintf(stdout, "tracing overhead: p50 %.3f ms untraced, %.3f ms traced (%+.1f%%); %d spans in %s\n",
			median(base.lat), median(p.lat), ov, len(spans), path)
		res.Metrics = perLayerMetrics(l, spans, ov)
		printLayers(stdout, res.Metrics)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// endToEnd derives the end-to-end metrics of an untraced phase. The tail
// latency is printed by report but not gated: on a shared 2-vCPU machine its
// run-to-run spread is wider than any bound a metric may have.
func endToEnd(p *phase) map[string]metric {
	ok := 0.0
	if p.attempted > 0 {
		ok = 100 * float64(p.attempted-p.failed) / float64(p.attempted)
	}
	return map[string]metric{
		"ok_pct":           {ok, "%"},
		"p50_ms":           {median(p.lat), "ms"},
		"throughput_per_s": {p.throughput(), "1/s"},
	}
}

func report(w io.Writer, p *phase) {
	tp := tailPercentile(len(p.lat))
	fmt.Fprintf(w, "operations: %d attempted, %d failed; latency p50 %.3f ms, p%g %.3f ms over %d samples; throughput %.1f /s\n",
		p.attempted, p.failed, median(p.lat), tp, percentile(p.lat, tp), len(p.lat), p.throughput())
	for _, n := range p.notes {
		fmt.Fprintf(w, "  %-24s %14.6g %s\n", n.name, n.value, n.unit)
	}
}

func printLayers(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// perLayerSpec lists every per-layer metric with its unit. A unit ending in
// "/op" is a run total divided by the operations of the traced phase; the
// rest are reported as measured (a mean per call, a percentile, a maximum or
// a share). Every workload reports every metric; a layer the workload does
// not reach reads 0.
var perLayerSpec = []struct{ name, unit string }{
	{"rt.replica_ms", "ms/op"}, {"rt.reexec_ms", "ms/op"},
	{"rt.replicated", "count/op"}, {"rt.sdc_detected", "count/op"},
	{"rt.due_recovered", "count/op"}, {"rt.reexecutions", "count/op"},
	{"rt.vote_failures", "count/op"}, {"rt.unprotected_sdc", "count/op"},
	{"ckpt.saves", "count/op"}, {"ckpt.bytes_saved", "B/op"},
	{"ckpt.restores", "count/op"}, {"ckpt.peak_live_bytes", "B"},
	{"vote.compares", "count/op"}, {"vote.compare_ns", "ns"},
	{"fault.draws", "count/op"}, {"fault.sdc", "count/op"}, {"fault.due", "count/op"},
	{"core.decide_ns", "ns"}, {"core.observe_ns", "ns"}, {"core.decisions", "count/op"},
	{"core.fit_budget_pct", "%"}, {"core.replicated_pct", "%"},
	{"bench.build_rt_ms", "ms/op"}, {"rt.shutdown_wait_ms", "ms/op"},
	{"bench.verify_ms", "ms/op"}, {"kern.primary_ms", "ms/op"},
	{"deps.edges", "count/op"}, {"sched.ready_depth_mean", "count"},
	{"bench.build_job_ms", "ms/op"}, {"cluster.sim_ms", "ms/op"},
	{"cluster.ns_per_sim_task", "ns"}, {"cluster.messages", "count/op"},
	{"cluster.wire_bytes", "B/op"}, {"place.optimize_ms", "ms/op"},
	{"sweep.queue_ms", "ms"}, {"sweep.lookup_ms", "ms"},
	{"sweep.hits", "count/op"}, {"sweep.misses", "count/op"},
	{"sweep.coalesced", "count/op"}, {"sweep.hit_pct", "%"},
	{"serve.admission_hit_p50_ms", "ms"}, {"serve.admission_hit_tail_ms", "ms"},
	{"serve.admission_miss_p50_ms", "ms"}, {"serve.admission_miss_tail_ms", "ms"},
	{"serve.queue_hit_p50_ms", "ms"}, {"serve.queue_hit_tail_ms", "ms"},
	{"serve.queue_miss_p50_ms", "ms"}, {"serve.queue_miss_tail_ms", "ms"},
	{"serve.admitted", "count"}, {"serve.rejected", "count"},
	{"serve.completed", "count"}, {"serve.failed", "count"},
	{"serve.heavy_share", "ratio"}, {"serve.queue_depth_max", "count"},
	{"httpapi.roundtrip_ms", "ms"}, {"httpapi.wire_ms", "ms"}, {"loadgen.lag_ms_max", "ms"},
	{"dist.sends", "count/op"}, {"dist.send_bytes", "B/op"},
	{"dist.recv_wait_ms", "ms/op"}, {"dist.messages", "count/op"},
	{"bench.build_dist_ms", "ms/op"}, {"dist.shutdown_ms", "ms/op"},
	{"self.op_ms", "ms/op"}, {"self.bench_ms", "ms/op"}, {"self.rt_ms", "ms/op"},
	{"self.sweep_ms", "ms/op"}, {"self.place_ms", "ms/op"}, {"self.cluster_ms", "ms/op"},
	{"self.serve_ms", "ms/op"}, {"self.httpapi_ms", "ms/op"}, {"self.dist_ms", "ms/op"},
	{"self.experiments_ms", "ms/op"},
	{"trace.overhead_pct", "%"}, {"trace.spans", "count"},
}

// spanMetrics maps span names to the per-layer metric their total time
// feeds.
var spanMetrics = map[string]string{
	"bench.build_rt":   "bench.build_rt_ms",
	"rt.shutdown":      "rt.shutdown_wait_ms",
	"bench.verify":     "bench.verify_ms",
	"bench.build_job":  "bench.build_job_ms",
	"cluster.sim":      "cluster.sim_ms",
	"place.optimize":   "place.optimize_ms",
	"bench.build_dist": "bench.build_dist_ms",
	"dist.shutdown":    "dist.shutdown_ms",
}

// perLayerMetrics turns a traced phase's layers into the per-layer metrics.
func perLayerMetrics(l *layers, spans []span, overheadPct float64) map[string]metric {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	l.add("vote.compares", float64(l.compares.Load()))
	l.add("fault.draws", float64(l.draws.Load()))
	l.add("fault.sdc", float64(l.sdc.Load()))
	l.add("fault.due", float64(l.due.Load()))
	l.add("core.decisions", float64(l.decisions.Load()))
	l.add("dist.sends", float64(l.sends.Load()))
	l.add("dist.send_bytes", float64(l.sendBytes.Load()))
	l.add("dist.recv_wait_ms", float64(l.recvWaitNs.Load())/1e6)
	for _, s := range spans {
		if m, ok := spanMetrics[s.Name]; ok && s.End >= s.Start {
			l.add(m, float64(s.End-s.Start)/1e6)
		}
	}
	self := map[string]time.Duration{}
	layerOf := map[string]string{}
	for _, s := range spans {
		layerOf[s.Name] = s.layer()
	}
	for n, d := range selfTimes(spans) {
		self[layerOf[n]] += d
	}
	for layer, d := range self {
		l.add("self."+layer+"_ms", ms(d))
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	v := l.vals
	derived := map[string]float64{
		"vote.compare_ns":         ratio(float64(l.compareNs.Load()), float64(l.compares.Load())),
		"core.decide_ns":          ratio(float64(l.decideNs.Load()), float64(l.decisions.Load())),
		"core.observe_ns":         ratio(float64(l.observeNs.Load()), float64(l.decisions.Load())),
		"sched.ready_depth_mean":  ratio(v["sched.ready_sum"], v["sched.ready_samples"]),
		"cluster.ns_per_sim_task": ratio(1e6*v["cluster.sim_ms"], v["cluster.sim_tasks"]),
		"sweep.queue_ms":          ratio(v["sweep.queue_total_ms"], v["sweep.requests"]),
		"sweep.lookup_ms":         ratio(v["sweep.lookup_total_ms"], v["sweep.requests"]),
		"sweep.hit_pct":           ratio(100*v["sweep.hits"], v["sweep.hits"]+v["sweep.misses"]),
		"trace.overhead_pct":      overheadPct,
		"trace.spans":             float64(len(spans)),
	}
	out := make(map[string]metric, len(perLayerSpec))
	for _, m := range perLayerSpec {
		x, ok := derived[m.name]
		switch {
		case ok:
		case strings.HasSuffix(m.unit, "/op"):
			x = ratio(v[m.name], float64(l.ops))
		default:
			x = l.maxs[m.name]
		}
		out[m.name] = metric{x, m.unit}
	}
	return out
}
