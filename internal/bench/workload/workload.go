// Package workload defines the common framework the nine Table-I benchmarks
// are written against: a cost model mapping kernel flop/byte counts to
// virtual time, a scale ladder (tiny test sizes up to paper-sized inputs),
// and a JobBuilder that converts a task stream with declared accesses into a
// cluster.Job for the virtual-time simulator — using the same
// in/out/inout region semantics the real runtime (internal/rt) uses, so both
// engines execute the same DAG.
package workload

import (
	"cmp"
	"fmt"
	"slices"

	"appfit/internal/cluster"
	"appfit/internal/deps"
	"appfit/internal/rt"
	"appfit/internal/simtime"
)

// Scale selects a problem size. Tiny is for unit tests (sub-millisecond),
// Small drives the experiment harness, Medium approaches the paper's sizes.
type Scale int

const (
	// Tiny is the unit-test size.
	Tiny Scale = iota
	// Small is the default experiment size.
	Small
	// Medium is the large experiment size (paper-shaped).
	Medium
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Medium:
		return "medium"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// CostModel converts kernel work into virtual core time for the simulator.
// The defaults model a ~4 GFLOP/s, 8 GB/s core of the Marenostrum era;
// absolute values only scale the time axis, not the figure shapes.
type CostModel struct {
	NsPerFlop float64
	NsPerByte float64
}

// DefaultCostModel returns the calibrated default.
func DefaultCostModel() CostModel { return CostModel{NsPerFlop: 0.25, NsPerByte: 0.125} }

// Cost returns the virtual time of a kernel doing flops floating-point
// operations over bytes of memory traffic (whichever resource dominates, as
// in a roofline model).
func (cm CostModel) Cost(flops, bytes int64) simtime.Time {
	f := float64(flops) * cm.NsPerFlop
	b := float64(bytes) * cm.NsPerByte
	if b > f {
		f = b
	}
	if f < 1 {
		f = 1
	}
	return simtime.Time(f)
}

// Verifier checks a finished workload's numeric result.
type Verifier func() error

// Workload is one Table-I benchmark.
type Workload interface {
	// Name is the benchmark's registry key (e.g. "cholesky").
	Name() string
	// Distributed reports whether the paper ran it across nodes.
	Distributed() bool
	// Description is the Table I summary line.
	Description() string
	// PaperSize is Table I's problem/block size text.
	PaperSize() string
	// InputBytes is the benchmark input footprint at the given scale,
	// the quantity thresholds derive from.
	InputBytes(s Scale) int64
	// BuildRT submits the task graph to the real runtime and returns a
	// verifier to call after Taskwait.
	BuildRT(r *rt.Runtime, s Scale) Verifier
	// BuildJob builds the same DAG as a cluster-simulator job, spread
	// over the given node count.
	BuildJob(s Scale, nodes int, cm CostModel) cluster.Job
}

// Acc declares one region access for JobBuilder tasks.
type Acc struct {
	Key   string
	Mode  deps.Mode
	Bytes int64
}

// RAcc, WAcc and RWAcc are shorthand constructors.
func RAcc(key string, bytes int64) Acc  { return Acc{Key: key, Mode: deps.In, Bytes: bytes} }
func WAcc(key string, bytes int64) Acc  { return Acc{Key: key, Mode: deps.Out, Bytes: bytes} }
func RWAcc(key string, bytes int64) Acc { return Acc{Key: key, Mode: deps.Inout, Bytes: bytes} }

// JobBuilder accumulates tasks in program order and derives the dependency
// edges (RAW, WAR, WAW) from their declared accesses through the runtime
// tracker's own rule (deps.Regions); cross-node edges carry the bytes of
// the region that created them.
type JobBuilder struct {
	cm      CostModel
	job     cluster.Job
	regions deps.Regions
	accs    []deps.Access // Task's scratch
	edges   []deps.Edge   // Task's scratch
}

// NewJobBuilder returns a builder for a named job.
func NewJobBuilder(name string, cm CostModel) *JobBuilder {
	return &JobBuilder{cm: cm, job: cluster.Job{Name: name}}
}

// SetInputBytes records the benchmark input footprint.
func (b *JobBuilder) SetInputBytes(n int64) { b.job.InputBytes = n }

// Task appends a task with the given kernel work and region accesses and
// returns its index. flops and memBytes feed the cost model; the argument
// footprint (FIT estimation, checkpoint size) is the sum of access bytes.
func (b *JobBuilder) Task(label string, node int, flops, memBytes int64, accs ...Acc) int {
	idx := len(b.job.Tasks)
	var argBytes int64
	b.accs = b.accs[:0]
	for _, a := range accs {
		argBytes += a.Bytes
		b.accs = append(b.accs, deps.Access{Key: a.Key, Mode: a.Mode})
	}
	// Task ids are indices + 1: the rule reserves id 0 for "no task".
	b.edges = b.regions.Add(b.edges[:0], uint64(idx+1), b.accs)
	// Sort by predecessor: each predecessor's edges become adjacent and
	// merge into one Deps entry, and Deps come out ascending, the order
	// the sweep engine's content-addressed cache keys were built on.
	slices.SortFunc(b.edges, func(x, y deps.Edge) int { return cmp.Compare(x.Pred, y.Pred) })
	t := cluster.Task{
		Label:    label,
		Node:     node,
		Cost:     b.cm.Cost(flops, memBytes),
		ArgBytes: argBytes,
	}
	for _, e := range b.edges {
		// A RAW edge carries the bytes its access reads. WAW and WAR
		// edges carry no payload: the successor overwrites the region, it
		// does not consume the data (an inout's consumption is its RAW
		// edge). A predecessor reached through several accesses carries
		// the largest.
		var bytes int64
		if e.RAW {
			bytes = accs[e.Access].Bytes
		}
		p := int(e.Pred - 1)
		if k := len(t.Deps); k > 0 && t.Deps[k-1] == p {
			t.DepBytes[k-1] = max(t.DepBytes[k-1], bytes)
			continue
		}
		t.Deps = append(t.Deps, p)
		t.DepBytes = append(t.DepBytes, bytes)
	}
	b.job.Tasks = append(b.job.Tasks, t)
	return idx
}

// Job returns the accumulated job.
func (b *JobBuilder) Job() cluster.Job { return b.job }
