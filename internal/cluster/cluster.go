// Package cluster is the virtual-time cluster simulator: the stand-in for
// the paper's Marenostrum III testbed (up to 64 nodes × 16 cores). It
// list-schedules a task DAG over simulated nodes and cores, models the
// replication machinery's costs (input checkpoint, duplicate execution on a
// spare core, output comparison, restore + re-execution on faults) and
// charges cross-node dependencies to a latency/bandwidth network model.
//
// The paper's scalability and overhead results (Figures 4-6) are statements
// about parallel makespans at core counts far beyond this host, so they are
// measured here in virtual time; DESIGN.md §2 records the substitution. The
// real goroutine runtime (internal/rt) and this simulator share workload
// DAG builders and one recovery policy, vote.Recovery: a task result is
// adopted once two clean executions agree. Only the clock differs
// (DESIGN.md §2).
package cluster

import (
	"container/heap"
	"errors"
	"fmt"

	"appfit/internal/fault"
	"appfit/internal/place"
	"appfit/internal/simnet"
	"appfit/internal/simtime"
	"appfit/internal/vote"
)

// Task is one node of the DAG to simulate.
type Task struct {
	// Label names the task kind (e.g. "potrf") for reports.
	Label string
	// Node is the home node (rank) the task is pinned to.
	Node int
	// Cost is the task's compute demand on one core.
	Cost simtime.Time
	// ArgBytes is the argument footprint: FIT estimation, checkpoint and
	// restore costs scale with it.
	ArgBytes int64
	// OutBytes is the compared-output size; 0 means use ArgBytes.
	OutBytes int64
	// Deps lists predecessor task indices.
	Deps []int
	// DepBytes[i] is the payload carried by edge Deps[i] when it crosses
	// nodes (nil means all edges carry zero bytes beyond latency).
	DepBytes []int64
}

// Job is a complete workload DAG.
type Job struct {
	Name  string
	Tasks []Task
	// InputBytes is the benchmark input footprint (threshold derivation).
	InputBytes int64
}

// ErrJob is the sentinel wrapped by every Validate rejection, so callers
// can errors.Is a malformed DAG without matching message text.
var ErrJob = errors.New("cluster: invalid job")

// ErrStalled is the sentinel wrapped by Run when the DAG never drains — a
// dependency cycle or scheduler bug, not a simulated fault.
var ErrStalled = errors.New("cluster: simulation stalled")

// Validate checks DAG well-formedness: dependencies must point backwards.
func (j Job) Validate(nodes int) error {
	for i, t := range j.Tasks {
		if t.Node < 0 || t.Node >= nodes {
			return fmt.Errorf("cluster: task %d pinned to node %d of %d: %w", i, t.Node, nodes, ErrJob)
		}
		if t.DepBytes != nil && len(t.DepBytes) != len(t.Deps) {
			return fmt.Errorf("cluster: task %d has %d deps but %d dep-bytes: %w", i, len(t.Deps), len(t.DepBytes), ErrJob)
		}
		for _, d := range t.Deps {
			if d < 0 || d >= i {
				return fmt.Errorf("cluster: task %d depends on %d (must be earlier): %w", i, d, ErrJob)
			}
		}
		if t.Cost < 0 {
			return fmt.Errorf("cluster: task %d has negative cost: %w", i, ErrJob)
		}
	}
	return nil
}

// TotalCost returns the serial compute demand of the job.
func (j Job) TotalCost() simtime.Time {
	var s simtime.Time
	for _, t := range j.Tasks {
		s += t.Cost
	}
	return s
}

// Config parameterizes one simulation run.
type Config struct {
	// Nodes and CoresPerNode shape the machine (defaults 1 and 1; with a
	// Topo, Nodes defaults to Topo.Ranks()).
	Nodes, CoresPerNode int
	// Net is the interconnect model (default simnet.Marenostrum()), used
	// when Topo is nil: every node pair is its own link — the flat fabric.
	Net simnet.Config
	// Topo places the simulated nodes on physical machines: cross-node
	// dependency payloads between co-located nodes are charged the
	// topology's intra-node model on their own link, node-crossing ones the
	// inter-node model serialized per physical cable — the same
	// simnet.Topology the dist layer's Sim transport and hierarchical
	// collectives consume, so both execution engines price communication
	// from one source of truth. Topo must place at least Nodes ranks
	// (Run returns a wrapped simnet.ErrTopology otherwise); nil keeps the
	// flat Net model.
	Topo *simnet.Topology
	// AutoPlace, when non-nil, makes Run search the node→machine
	// assignment instead of taking Topo as given: the job's dependency
	// traffic is profiled (JobProfile) and internal/place optimizes the
	// placement against the meter's makespan, starting from Topo (which
	// then also supplies machine defaults the options leave zero — with a
	// nil Topo, AutoPlace.PerNode must be set). The optimized topology
	// replaces Topo for the run and is reported as Result.Placement.
	AutoPlace *place.Options
	// MemBWBytesPerSec prices checkpoint/restore/compare memory traffic
	// (default 32 GB/s: input snapshots and output comparisons stream
	// cache-resident blocks, not cold DRAM).
	MemBWBytesPerSec float64
	// ReplicaCores adds a per-node pool of spare cores that replica
	// executions (and recovery re-executions) run on, the paper's
	// "task replicas are executed on spare cores" setup (§V-A2): the
	// resource cost exceeds 100% but primaries keep their cores. 0 means
	// replicas compete with primaries for CoresPerNode.
	ReplicaCores int
	// Replicated[i] selects task i for replication; nil replicates none.
	Replicated []bool
	// Injector draws per-execution fault outcomes (default none). The
	// paper's scalability runs use fixed per-task rates
	// (fault.NewFixedRate).
	Injector fault.Injector
	// MaxAttempts caps executions per task (default 8). A replicated task
	// that spends it without two agreeing executions is finished anyway
	// and counted in Result.VoteFailures, where the runtime would report
	// vote.ErrNoMajority.
	MaxAttempts int
}

// Normalized returns the config with every defaulted field resolved to the
// value Run will actually use (machine shape, network model, memory
// bandwidth, injector, attempt cap). Run normalizes internally; callers
// that derive content-addressed identity from a Config (internal/sweep's
// results cache) normalize first so that a zero field and its explicit
// default digest identically.
func (c Config) Normalized() Config {
	if c.Nodes < 1 {
		c.Nodes = 1
		if c.Topo != nil {
			c.Nodes = c.Topo.Ranks()
		}
	}
	if c.CoresPerNode < 1 {
		c.CoresPerNode = 1
	}
	if c.Net == (simnet.Config{}) {
		c.Net = simnet.Marenostrum()
	}
	if c.MemBWBytesPerSec <= 0 {
		c.MemBWBytesPerSec = 32e9
	}
	if c.Injector == nil {
		c.Injector = &fault.NoFaults{}
	}
	if c.MaxAttempts < 3 {
		c.MaxAttempts = 8
	}
	return c
}

// All returns a slice replicating every one of n tasks.
func All(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}

// Result is the outcome of a simulation run.
type Result struct {
	// Makespan is the virtual completion time of the whole job.
	Makespan simtime.Time
	// BusyTime is the summed core-occupancy of all executions (including
	// redundant ones and recovery).
	BusyTime simtime.Time
	// PrimaryTime is the summed cost of primary executions only.
	PrimaryTime simtime.Time
	// RedundantTime is replica + re-execution core time.
	RedundantTime simtime.Time
	// OverheadTime is checkpoint + compare + restore time.
	OverheadTime simtime.Time
	// Replicated counts tasks that ran with a replica.
	Replicated int
	// SDCDetected / DUERecovered / Reexecutions / VoteFailures count
	// recovery activity, per task exactly as rt.Stats counts it.
	SDCDetected, DUERecovered, Reexecutions, VoteFailures int
	// Messages / BytesSent / WireBytes summarize network traffic;
	// WireBytes is the portion that crossed physical-node boundaries
	// (everything, without a Config.Topo).
	Messages  uint64
	BytesSent int64
	WireBytes int64
	// NodeBusy[n] is node n's summed primary-core occupancy; utilization
	// analyses divide by Makespan × CoresPerNode.
	NodeBusy []simtime.Time
	// Placement is the topology the run actually used when Config.AutoPlace
	// searched one (nil otherwise — the configured Topo was taken as given).
	Placement *simnet.Topology
}

// Utilization returns node n's primary-core utilization in [0, 1].
func (r Result) Utilization(n, coresPerNode int) float64 {
	if n < 0 || n >= len(r.NodeBusy) || r.Makespan == 0 || coresPerNode == 0 {
		return 0
	}
	return float64(r.NodeBusy[n]) / (float64(r.Makespan) * float64(coresPerNode))
}

// LoadImbalance returns max/mean node busy time (1 = perfectly balanced).
func (r Result) LoadImbalance() float64 {
	if len(r.NodeBusy) == 0 {
		return 0
	}
	var sum, max simtime.Time
	for _, b := range r.NodeBusy {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(r.NodeBusy))
	return float64(max) / mean
}

// OverheadPct returns the percentage makespan increase over base.
func (r Result) OverheadPct(base Result) float64 {
	if base.Makespan == 0 {
		return 0
	}
	return 100 * (float64(r.Makespan) - float64(base.Makespan)) / float64(base.Makespan)
}

// Speedup returns base.Makespan / r.Makespan.
func (r Result) Speedup(base Result) float64 {
	if r.Makespan == 0 {
		return 0
	}
	return float64(base.Makespan) / float64(r.Makespan)
}

type taskState struct {
	depsLeft    int
	started     bool
	done        bool
	clean       bool // a clean execution completed: later clean ones agree with it
	outstanding int  // executions in flight
	rec         vote.Recovery
}

type execItem struct {
	task    int
	attempt int
	cost    simtime.Time
}

// itemHeap orders ready executions by program order (task index, then
// attempt): earlier tasks are usually on the critical path (panel
// factorizations before trailing updates), the lookahead priority a real
// dataflow runtime gives them.
type itemHeap []execItem

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if h[i].task != h[j].task {
		return h[i].task < h[j].task
	}
	return h[i].attempt < h[j].attempt
}
func (h itemHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x interface{}) { *h = append(*h, x.(execItem)) }
func (h *itemHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

type succEdge struct {
	task  int // successor task index
	bytes int64
}

type sim struct {
	job Job
	cfg Config
	eng *simtime.Engine
	net *simnet.Network

	states []taskState
	succs  [][]succEdge // successor adjacency, built once at start
	free   []int        // free cores per node
	ready  []itemHeap   // per-node priority queue of runnable executions
	// Spare-core pool (nil when ReplicaCores == 0): replica and recovery
	// executions queue here instead of competing with primaries.
	freeR  []int
	readyR []itemHeap

	res       Result
	remaining int
}

// spare reports whether it should run on the spare-core pool.
func (s *sim) spare(it execItem) bool {
	return s.freeR != nil && it.attempt > 0
}

// Run simulates the job on the configured machine and returns the result.
// A replicated task that exhausts MaxAttempts is finished anyway and
// counted in Result.VoteFailures; the time it spent stays charged.
func Run(job Job, cfg Config) (Result, error) {
	cfg = cfg.Normalized()
	if err := job.Validate(cfg.Nodes); err != nil {
		return Result{}, err
	}
	if cfg.Topo != nil && cfg.Topo.Ranks() < cfg.Nodes {
		return Result{}, fmt.Errorf("cluster: %d-rank topology under %d nodes: %w",
			cfg.Topo.Ranks(), cfg.Nodes, simnet.ErrTopology)
	}
	if err := cfg.Net.Validate(); err != nil {
		return Result{}, fmt.Errorf("cluster: %w", err)
	}
	var placed *simnet.Topology
	if cfg.AutoPlace != nil {
		var err error
		if cfg, _, err = autoPlace(job, cfg); err != nil {
			return Result{}, err
		}
		placed = cfg.Topo
	}
	s := &sim{
		job:       job,
		cfg:       cfg,
		eng:       simtime.New(),
		states:    make([]taskState, len(job.Tasks)),
		free:      make([]int, cfg.Nodes),
		ready:     make([]itemHeap, cfg.Nodes),
		remaining: len(job.Tasks),
	}
	if cfg.Topo != nil {
		s.net = simnet.NewWithTopology(s.eng, cfg.Topo)
	} else {
		s.net = simnet.New(s.eng, cfg.Net)
	}
	s.res.NodeBusy = make([]simtime.Time, cfg.Nodes)
	for n := range s.free {
		s.free[n] = cfg.CoresPerNode
	}
	if cfg.ReplicaCores > 0 {
		s.freeR = make([]int, cfg.Nodes)
		s.readyR = make([]itemHeap, cfg.Nodes)
		for n := range s.freeR {
			s.freeR[n] = cfg.ReplicaCores
		}
	}
	s.succs = make([][]succEdge, len(job.Tasks))
	for i, t := range job.Tasks {
		s.states[i].depsLeft = len(t.Deps)
		for k, d := range t.Deps {
			var bytes int64
			if t.DepBytes != nil {
				bytes = t.DepBytes[k]
			}
			s.succs[d] = append(s.succs[d], succEdge{task: i, bytes: bytes})
		}
	}
	for i := range job.Tasks {
		if s.states[i].depsLeft == 0 {
			s.launch(i)
		}
	}
	for n := range s.ready {
		s.trySchedule(n)
	}
	s.eng.Run()
	if s.remaining != 0 {
		return Result{}, fmt.Errorf("cluster: %d tasks never completed (DAG cycle or scheduler bug): %w", s.remaining, ErrStalled)
	}
	s.res.Messages = s.net.Messages()
	s.res.BytesSent = s.net.BytesSent()
	s.res.WireBytes = s.net.WireBytes()
	s.res.Makespan = s.eng.Now()
	s.res.Placement = placed
	return s.res, nil
}

func (s *sim) memCost(bytes int64) simtime.Time {
	return simtime.FromSeconds(float64(bytes) / s.cfg.MemBWBytesPerSec)
}

func (s *sim) outBytes(i int) int64 {
	if s.job.Tasks[i].OutBytes > 0 {
		return s.job.Tasks[i].OutBytes
	}
	return s.job.Tasks[i].ArgBytes
}

func (s *sim) replicated(i int) bool {
	return s.cfg.Replicated != nil && i < len(s.cfg.Replicated) && s.cfg.Replicated[i]
}

// launch enqueues the initial execution(s) of task i.
func (s *sim) launch(i int) {
	st := &s.states[i]
	st.started = true
	t := s.job.Tasks[i]
	if s.replicated(i) {
		s.res.Replicated++
		// Primary carries the input-checkpoint cost (Figure 2 step 1).
		ck := s.memCost(t.ArgBytes)
		s.res.OverheadTime += ck
		st.outstanding = 2
		st.rec = vote.Recovery{MaxAttempts: s.cfg.MaxAttempts}
		s.enqueue(t.Node, execItem{task: i, attempt: 0, cost: t.Cost + ck})
		s.enqueue(t.Node, execItem{task: i, attempt: 1, cost: t.Cost})
	} else {
		st.outstanding = 1
		s.enqueue(t.Node, execItem{task: i, attempt: 0, cost: t.Cost})
	}
}

func (s *sim) enqueue(node int, it execItem) {
	if s.spare(it) {
		heap.Push(&s.readyR[node], it)
	} else {
		heap.Push(&s.ready[node], it)
	}
	s.trySchedule(node)
}

func (s *sim) trySchedule(node int) {
	start := func(it execItem) {
		s.res.BusyTime += it.cost
		if !s.spare(it) {
			s.res.NodeBusy[node] += it.cost
		}
		if it.attempt == 0 {
			s.res.PrimaryTime += s.job.Tasks[it.task].Cost
		} else {
			s.res.RedundantTime += s.job.Tasks[it.task].Cost
		}
		s.eng.After(it.cost, func() { s.execDone(node, it) })
	}
	for s.free[node] > 0 && len(s.ready[node]) > 0 {
		it := heap.Pop(&s.ready[node]).(execItem)
		s.free[node]--
		start(it)
	}
	if s.freeR != nil {
		for s.freeR[node] > 0 && len(s.readyR[node]) > 0 {
			it := heap.Pop(&s.readyR[node]).(execItem)
			s.freeR[node]--
			start(it)
		}
	}
}

func (s *sim) execDone(node int, it execItem) {
	if s.spare(it) {
		s.freeR[node]++
	} else {
		s.free[node]++
	}
	st := &s.states[it.task]
	t := s.job.Tasks[it.task]
	outcome := s.cfg.Injector.Draw(uint64(it.task+1), it.attempt, 0, 0)
	if s.replicated(it.task) {
		// Classify for the recovery policy: a clean result agrees with an
		// earlier clean one; an SDC-corrupted result agrees with nothing.
		switch {
		case outcome == fault.DUE:
			st.rec.Observe(vote.Crashed)
		case outcome == fault.None && st.clean:
			st.rec.Observe(vote.Agreed)
		default:
			st.clean = st.clean || outcome == fault.None
			st.rec.Observe(vote.Disagreed)
		}
	}
	st.outstanding--
	s.trySchedule(node)
	if st.outstanding > 0 {
		return
	}
	if !s.replicated(it.task) {
		// Unreplicated: the single execution's result stands, corrupted
		// or not — exactly the unprotected risk the heuristic accepts.
		s.finish(it.task)
		return
	}
	// All in-flight executions of a replicated task have completed:
	// compare outputs (Figure 2 step 3) and let the policy decide.
	cmp := s.memCost(s.outBytes(it.task))
	s.res.OverheadTime += cmp
	s.eng.After(cmp, func() {
		act, c := st.rec.Decide()
		s.res.SDCDetected += c.SDCDetected
		s.res.DUERecovered += c.DUERecovered
		s.res.Reexecutions += c.Reexecutions
		s.res.VoteFailures += c.VoteFailures
		if act != vote.Reexecute {
			s.finish(it.task)
			return
		}
		// Restore from checkpoint (step 4) and re-execute.
		restore := s.memCost(t.ArgBytes)
		s.res.OverheadTime += restore
		st.outstanding = 1
		s.enqueue(t.Node, execItem{task: it.task, attempt: st.rec.Attempts(), cost: t.Cost + restore})
	})
}

// finish marks task i complete and releases its successors, charging
// cross-node edges to the network. A producer's data travels to each
// consumer node once, releasing every waiting successor there on arrival —
// the node-local data cache of a distributed dataflow runtime (OmpSs+MPI
// moves a block per node, not per consuming task).
func (s *sim) finish(i int) {
	st := &s.states[i]
	if st.done {
		return
	}
	st.done = true
	s.remaining--
	from := s.job.Tasks[i].Node
	release := func(jj int) {
		stj := &s.states[jj]
		stj.depsLeft--
		if stj.depsLeft == 0 && !stj.started {
			s.launch(jj)
		}
	}
	var perNode map[int]*nodeDelivery
	for _, e := range s.succs[i] {
		jj := e.task
		dst := s.job.Tasks[jj].Node
		if dst == from {
			release(jj)
			continue
		}
		if perNode == nil {
			perNode = make(map[int]*nodeDelivery)
		}
		d := perNode[dst]
		if d == nil {
			d = &nodeDelivery{}
			perNode[dst] = d
		}
		if e.bytes > d.bytes {
			d.bytes = e.bytes
		}
		d.tasks = append(d.tasks, jj)
	}
	// Deterministic send order: iterate destinations in ascending order.
	for dst := 0; dst < s.cfg.Nodes; dst++ {
		d := perNode[dst]
		if d == nil {
			continue
		}
		tasks := d.tasks
		s.net.Send(from, dst, d.bytes, func() {
			for _, jj := range tasks {
				release(jj)
			}
		})
	}
}

// nodeDelivery batches one producer's data transfer to one consumer node.
type nodeDelivery struct {
	bytes int64
	tasks []int
}
