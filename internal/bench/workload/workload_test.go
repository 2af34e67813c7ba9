package workload

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"appfit/internal/cluster"
	"appfit/internal/deps"
	"appfit/internal/xrand"
)

func TestScaleString(t *testing.T) {
	if Tiny.String() != "tiny" || Small.String() != "small" || Medium.String() != "medium" {
		t.Fatal("scale strings")
	}
	if Scale(9).String() == "" {
		t.Fatal("unknown scale must stringify")
	}
}

func TestCostModelRoofline(t *testing.T) {
	cm := CostModel{NsPerFlop: 1, NsPerByte: 2}
	if cm.Cost(100, 10) != 100 {
		t.Fatal("compute-bound cost wrong")
	}
	if cm.Cost(10, 100) != 200 {
		t.Fatal("memory-bound cost wrong")
	}
	if cm.Cost(0, 0) != 1 {
		t.Fatal("cost must have a 1ns floor")
	}
	d := DefaultCostModel()
	if d.NsPerFlop <= 0 || d.NsPerByte <= 0 {
		t.Fatal("bad defaults")
	}
}

func TestAccConstructors(t *testing.T) {
	if RAcc("k", 8).Mode != deps.In || WAcc("k", 8).Mode != deps.Out || RWAcc("k", 8).Mode != deps.Inout {
		t.Fatal("acc modes wrong")
	}
}

func TestJobBuilderEdges(t *testing.T) {
	jb := NewJobBuilder("t", DefaultCostModel())
	jb.SetInputBytes(123)
	w := jb.Task("w", 0, 10, 10, WAcc("A", 64))
	r1 := jb.Task("r1", 1, 10, 10, RAcc("A", 64))
	r2 := jb.Task("r2", 1, 10, 10, RAcc("A", 64))
	w2 := jb.Task("w2", 0, 10, 10, WAcc("A", 64))
	job := jb.Job()
	if job.InputBytes != 123 || job.Name != "t" {
		t.Fatal("metadata lost")
	}
	// RAW: readers depend on writer with payload.
	for _, r := range []int{r1, r2} {
		task := job.Tasks[r]
		if len(task.Deps) != 1 || task.Deps[0] != w {
			t.Fatalf("reader deps %v", task.Deps)
		}
		if task.DepBytes[0] != 64 {
			t.Fatalf("RAW payload %d", task.DepBytes[0])
		}
	}
	// WAW + WAR: the second writer depends on the first writer and both
	// readers, all with zero payload (it overwrites the region).
	wt := job.Tasks[w2]
	if len(wt.Deps) != 3 {
		t.Fatalf("w2 deps %v", wt.Deps)
	}
	for k := range wt.Deps {
		if wt.DepBytes[k] != 0 {
			t.Fatal("WAW/WAR edges must carry no payload")
		}
	}
	if err := job.Validate(2); err != nil {
		t.Fatal(err)
	}
}

func TestJobBuilderWAW(t *testing.T) {
	jb := NewJobBuilder("t", DefaultCostModel())
	a := jb.Task("a", 0, 1, 1, WAcc("X", 32))
	b := jb.Task("b", 0, 1, 1, WAcc("X", 32))
	job := jb.Job()
	if len(job.Tasks[b].Deps) != 1 || job.Tasks[b].Deps[0] != a {
		t.Fatalf("WAW edge missing: %v", job.Tasks[b].Deps)
	}
}

func TestJobBuilderInoutChain(t *testing.T) {
	jb := NewJobBuilder("t", DefaultCostModel())
	prev := -1
	for i := 0; i < 5; i++ {
		idx := jb.Task("u", 0, 1, 1, RWAcc("X", 16))
		job := jb.Job()
		if i > 0 {
			if len(job.Tasks[idx].Deps) != 1 || job.Tasks[idx].Deps[0] != prev {
				t.Fatalf("step %d: deps %v", i, job.Tasks[idx].Deps)
			}
		}
		prev = idx
	}
}

func TestJobBuilderArgBytes(t *testing.T) {
	jb := NewJobBuilder("t", DefaultCostModel())
	jb.Task("m", 0, 1, 1, RAcc("A", 100), RWAcc("B", 28))
	if jb.Job().Tasks[0].ArgBytes != 128 {
		t.Fatalf("arg bytes %d", jb.Job().Tasks[0].ArgBytes)
	}
}

func TestJobBuilderProducesRunnableJob(t *testing.T) {
	jb := NewJobBuilder("t", DefaultCostModel())
	jb.Task("a", 0, 100, 0, WAcc("X", 8))
	jb.Task("b", 1, 100, 0, RAcc("X", 8), WAcc("Y", 8))
	jb.Task("c", 0, 100, 0, RAcc("Y", 8))
	res, err := cluster.Run(jb.Job(), cluster.Config{Nodes: 2, CoresPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("empty makespan")
	}
	if res.Messages < 2 {
		t.Fatalf("cross-node edges not charged: %d messages", res.Messages)
	}
}

// TestJobBuilderDeterministic: two builds of the same task stream are
// deep-equal, edge order included — the property the sweep engine's
// content-addressed cache needs to hit across independently built requests
// (a served request is rebuilt from its spec on every submission).
func TestJobBuilderDeterministic(t *testing.T) {
	build := func() cluster.Job {
		jb := NewJobBuilder("t", DefaultCostModel())
		// Fan-in with several predecessors, so a map-ordered emit would
		// permute Deps between builds.
		a := jb.Task("a", 0, 10, 0, WAcc("A", 8))
		b := jb.Task("b", 0, 10, 0, WAcc("B", 8))
		c := jb.Task("c", 0, 10, 0, WAcc("C", 8))
		jb.Task("sum", 0, 10, 0, RAcc("A", 8), RAcc("B", 8), RAcc("C", 8), WAcc("S", 8))
		_ = []int{a, b, c}
		return jb.Job()
	}
	j1, j2 := build(), build()
	if !reflect.DeepEqual(j1, j2) {
		t.Fatalf("builds differ:\n%+v\n%+v", j1, j2)
	}
	want := []int{0, 1, 2}
	if got := j1.Tasks[3].Deps; !reflect.DeepEqual(got, want) {
		t.Fatalf("fan-in deps %v, want sorted %v", got, want)
	}
}

// TestJobBuilderMatchesTracker: over random access streams, the simulator's
// jobs carry exactly the runtime tracker's edges. Each task's Deps count is
// the tracker's pending count, the totals agree, and completing tasks in
// program order releases each task exactly when its highest-index
// predecessor in Deps completes, so the two predecessor sets are equal.
func TestJobBuilderMatchesTracker(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		const n = 50
		jb := NewJobBuilder("prop", DefaultCostModel())
		tr := deps.NewTracker()
		for i := 0; i < n; i++ {
			var accs []Acc
			var daccs []deps.Access
			for j := 1 + r.Intn(3); j > 0; j-- {
				a := Acc{Key: fmt.Sprintf("k%d", r.Intn(6)), Mode: deps.Mode(r.Intn(3)), Bytes: int64(1 + r.Intn(64))}
				accs = append(accs, a)
				daccs = append(daccs, deps.Access{Key: a.Key, Mode: a.Mode})
			}
			jb.Task("t", 0, 1, 1, accs...)
			tr.Register(uint64(i+1), daccs)
		}
		job := jb.Job()
		edges := 0
		for i, task := range job.Tasks {
			edges += len(task.Deps)
			if got := tr.Pending(uint64(i + 1)); got != len(task.Deps) {
				t.Logf("seed %d: task %d has %d deps, tracker pending %d", seed, i, len(task.Deps), got)
				return false
			}
		}
		if edges != tr.Edges() {
			t.Logf("seed %d: job has %d edges, tracker %d", seed, edges, tr.Edges())
			return false
		}
		for p := 0; p < n; p++ {
			for _, s := range tr.Complete(uint64(p + 1)) {
				d := job.Tasks[s-1].Deps
				if len(d) == 0 || d[len(d)-1] != p {
					t.Logf("seed %d: completing %d released %d, whose deps are %v", seed, p, s-1, d)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
