package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"appfit/internal/serve/httpapi"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input")
	}
}

func TestOpenLoopLatencyFromDue(t *testing.T) {
	// One connection, a request due every 2 ms, and the first send stalls
	// for 60 ms: the requests due during the stall go out late, and their
	// latency must include the wait, measured from when each was due.
	const n, gap, stall = 20, 2 * time.Millisecond, 60 * time.Millisecond
	sched := make([]time.Duration, n)
	for i := range sched {
		sched[i] = time.Duration(i) * gap
	}
	shots := openLoop(time.Now(), sched, 1, time.Hour, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	for i, s := range shots {
		if !s.Sent {
			t.Fatalf("request %d not sent", i)
		}
		// Request i is due at i·gap and cannot finish before the stall ends.
		if min := stall - sched[i]; s.Latency < min-time.Millisecond {
			t.Errorf("request %d latency %v, want at least %v", i, s.Latency, min)
		}
		if i > 0 && s.Lag < stall-sched[i]-time.Millisecond {
			t.Errorf("request %d lag %v, want at least %v", i, s.Lag, stall-sched[i])
		}
	}
}

func TestOpenLoopAbortsWhenFarBehind(t *testing.T) {
	sched := make([]time.Duration, 50)
	shots := openLoop(time.Now(), sched, 1, 10*time.Millisecond, func(int) { time.Sleep(20 * time.Millisecond) })
	sent := 0
	for _, s := range shots {
		if s.Sent {
			sent++
		}
	}
	if sent == 0 || sent == len(sched) {
		t.Fatalf("sent %d of %d, want the schedule cut short", sent, len(sched))
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Parent [0,100] with children [10,40] and [30,60] overlapping each
	// other and [90,120] running past the parent's end: the children cover
	// [10,60] and [90,100], so the parent's self time is 40. A grandchild
	// is subtracted from its own parent only.
	spans := []span{
		{ID: 0, Parent: -1, Name: "op.a", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "x.b", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "x.b", Start: 30, End: 60},
		{ID: 3, Parent: 0, Name: "y.c", Start: 90, End: 120},
		{ID: 4, Parent: 1, Name: "z.d", Start: 15, End: 25},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"op.a": 40, "x.b": 20 + 30, "y.c": 30, "z.d": 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	if id := r.begin(r.newOp(), -1, "op.x"); id != -1 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	r.end(-1)
	var l *layers
	if l.recorder() != nil {
		t.Fatal("nil layers has a recorder")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	hits := []httpapi.JobSpec{{Bench: "stream", Scale: "small"}, {Bench: "fft", Scale: "small", Replicate: true}}
	type inputs struct {
		Runtime [][]rtOp
		Sweep   []sweepOp
		World   [][]uint64
		Arrival []time.Duration
		Serve   []serveReq
	}
	gen := func(seed uint64) inputs {
		e := &env{seed: seed}
		r := &runtimeWL{e: e, apps: make([]rtApp, len(runtimeApps)), rng: seeded(seed, streamRuntime)}
		s := &sweepWL{e: e, rng: seeded(seed, streamSweep)}
		w := &worldWL{e: e, rng: seeded(seed, streamWorld)}
		v := &serveWL{e: e, hits: hits, tasks: map[string]int{"stream": 1, "fft": 1}, rng: seeded(seed, streamServe)}
		var in inputs
		for i := 0; i < 3; i++ {
			in.Runtime = append(in.Runtime, r.round())
			in.Sweep = append(in.Sweep, s.next())
			in.World = append(in.World, w.faultSeeds())
		}
		in.Arrival = poisson(v.rng, baseRate, time.Second)
		in.Serve = v.requests(200)
		return in
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 generated different inputs on two runs")
	}
	if reflect.DeepEqual(a.Runtime, c.Runtime) || reflect.DeepEqual(a.Sweep, c.Sweep) ||
		reflect.DeepEqual(a.World, c.World) || reflect.DeepEqual(a.Serve, c.Serve) {
		t.Fatal("seeds 7 and 8 generated the same inputs")
	}
	misses := 0
	for _, q := range a.Serve {
		if q.hit < 0 {
			misses++
			if q.spec.Rate == 0 || q.spec.Seed == 0 {
				t.Fatalf("miss spec %+v is not a fresh-seed faulty spec", q.spec)
			}
		}
	}
	if misses == 0 || misses > len(a.Serve)/4 {
		t.Fatalf("%d misses in %d requests, want about a tenth", misses, len(a.Serve))
	}
	light := 0
	for i := 0; i < len(a.Serve); i += perSub {
		sub, misses := a.Serve[i:i+perSub], 0
		for _, q := range sub {
			if q.hit < 0 {
				misses++
			}
			if q.tenant != sub[0].tenant {
				t.Fatalf("submission %d mixes tenants %q and %q", i/perSub, sub[0].tenant, q.tenant)
			}
		}
		if misses != 1 {
			t.Fatalf("submission %d holds %d misses, want 1", i/perSub, misses)
		}
		if sub[0].tenant == "light" {
			light++
		}
	}
	if subs := len(a.Serve) / perSub; light != subs/lightOf {
		t.Fatalf("%d of %d submissions from the light tenant, want %d", light, subs, subs/lightOf)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program prints
// in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type m struct{ Name, Unit string }
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for k := range workloads {
		known = append(known, k)
	}
	sort.Strings(names)
	sort.Strings(known)
	if !reflect.DeepEqual(names, known) {
		t.Errorf("workloads %v, program has %v", names, known)
	}

	want := map[string]string{"setup_s": "s"}
	for k, v := range endToEnd(&phase{attempted: 1}) {
		want[k] = v.Unit
	}
	got := map[string]string{}
	for _, e := range cfg.EndToEnd {
		got[e.Name] = e.Unit
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end %v, program prints %v", got, want)
	}

	got = map[string]string{}
	for _, e := range cfg.PerLayer {
		got[e.Name] = e.Unit
	}
	want = map[string]string{}
	for _, e := range perLayerSpec {
		want[e.name] = e.unit
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer %v, program prints %v", got, want)
	}
}

func TestWindowRates(t *testing.T) {
	t0 := time.Now()
	done := func(at time.Duration) shot { return shot{Sent: true, Due: t0, Latency: at} }
	shots := []shot{
		done(100 * time.Millisecond), done(200 * time.Millisecond), // window 0
		done(700 * time.Millisecond),               // window 1
		done(1200 * time.Millisecond),              // after the run
		{Due: t0, Latency: 300 * time.Millisecond}, // never sent
	}
	// Each shot is a submission of perSub requests.
	got := windowRates(shots, t0, time.Second, 500*time.Millisecond)
	if want := []float64{4 * perSub, 2 * perSub}; !reflect.DeepEqual(got, want) {
		t.Fatalf("windowRates = %v, want %v", got, want)
	}
}
