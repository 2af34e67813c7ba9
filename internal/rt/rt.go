// Package rt is the task-parallel dataflow runtime — the Go equivalent of
// OmpSs + Nanos that the paper implements its framework in (§III). Programs
// submit tasks with declared in/out/inout accesses on named regions; the
// runtime infers dependencies, executes ready tasks on a worker pool, and —
// when the configured selection heuristic chooses a task — replicates it:
//
//  1. the task's inputs are checkpointed to safe memory;
//  2. a duplicate task descriptor is created and scheduled;
//  3. the original and the replica execute in parallel and their outputs
//     are compared at the end (the only synchronization point);
//  4. on mismatch (SDC detected) the initial state is restored from the
//     checkpoint and the task re-executes;
//  5. a majority vote over the three results selects the task's output.
//
// Crashes (DUEs) are absorbed by re-execution from the checkpoint. When to
// adopt, re-execute or give up is decided by vote.Recovery, the policy the
// cluster simulator runs too; this package supplies the mechanism. Faults
// are supplied by an injector (internal/fault), driven by the same per-task
// FIT estimates the heuristic uses.
package rt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"appfit/internal/buffer"
	"appfit/internal/ckpt"
	"appfit/internal/core"
	"appfit/internal/deps"
	"appfit/internal/fault"
	"appfit/internal/fit"
	"appfit/internal/sched"
	"appfit/internal/trace"
	"appfit/internal/vote"
)

// Arg is one declared task argument: a named region, an access mode and the
// buffer holding its data. Region keys play the role of the pointer-based
// region identifiers a C runtime uses.
type Arg struct {
	Key  string
	Mode deps.Mode
	Buf  buffer.Buffer
}

// In declares a read-only argument.
func In(key string, b buffer.Buffer) Arg { return Arg{Key: key, Mode: deps.In, Buf: b} }

// Out declares a write-only argument.
func Out(key string, b buffer.Buffer) Arg { return Arg{Key: key, Mode: deps.Out, Buf: b} }

// Inout declares a read-modify-write argument.
func Inout(key string, b buffer.Buffer) Arg { return Arg{Key: key, Mode: deps.Inout, Buf: b} }

// Ctx gives a task body access to the buffers of the current execution
// attempt. Replicated executions receive private copies of the writable
// arguments, so a body must only touch its data through the Ctx.
type Ctx struct {
	bufs    []buffer.Buffer
	attempt int
	worker  int
	taskID  uint64
}

// NArgs returns the number of declared arguments.
func (c *Ctx) NArgs() int { return len(c.bufs) }

// Buf returns argument i's buffer for this attempt.
func (c *Ctx) Buf(i int) buffer.Buffer { return c.bufs[i] }

// F64 returns argument i as a float64 slice buffer.
func (c *Ctx) F64(i int) buffer.F64 { return c.bufs[i].(buffer.F64) }

// C128 returns argument i as a complex128 slice buffer.
func (c *Ctx) C128(i int) buffer.C128 { return c.bufs[i].(buffer.C128) }

// I64 returns argument i as an int64 slice buffer.
func (c *Ctx) I64(i int) buffer.I64 { return c.bufs[i].(buffer.I64) }

// U8 returns argument i as a byte slice buffer.
func (c *Ctx) U8(i int) buffer.U8 { return c.bufs[i].(buffer.U8) }

// Attempt returns the execution attempt index (0 primary, 1 replica, ≥2
// re-executions). Task bodies normally ignore it; tests use it.
func (c *Ctx) Attempt() int { return c.attempt }

// Worker returns the executing worker index (replica executions report the
// primary's worker).
func (c *Ctx) Worker() int { return c.worker }

// TaskID returns the runtime-assigned id of the task instance.
func (c *Ctx) TaskID() uint64 { return c.taskID }

// TaskFunc is a task body. It must be deterministic in its declared
// arguments: the replication engine compares outputs bitwise, so any hidden
// input (time, global state, map iteration order) would be reported as SDC.
type TaskFunc func(ctx *Ctx)

// Config configures a Runtime.
type Config struct {
	// Workers is the thread-pool size (default 1).
	Workers int
	// Selector decides which tasks to replicate (default: ReplicateNone).
	Selector core.Selector
	// Rates are the node failure rates for FIT estimation (default:
	// fit.Roadrunner()).
	Rates fit.Rates
	// RatesSet marks Rates as explicitly provided (allows zero rates).
	RatesSet bool
	// Injector supplies fault outcomes (default: no faults).
	Injector fault.Injector
	// Comparator checks replica agreement (default: bitwise).
	Comparator vote.Comparator
	// CheckpointCopies is the checkpoint redundancy factor (default 1).
	CheckpointCopies int
	// Voters is the number of comparator passes (default 1; the paper's
	// "multiple voters" hardening makes it >1).
	Voters int
	// ExposureHours converts a task's FIT rates into per-execution failure
	// probabilities: p = 1-exp(-λ·T) with T = ExposureHours (default 1).
	// Real per-task exposures are sub-second and would make faults
	// unobservably rare; one hour of exposure per execution is the
	// documented acceleration used by the fault experiments.
	ExposureHours float64
	// Tracer, if non-nil, records per-task events.
	Tracer *trace.Tracer
	// MaxAttempts caps executions per task including recovery re-runs
	// (default 8); running out without two agreeing results fails the run
	// with vote.ErrNoMajority.
	MaxAttempts int
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Selector == nil {
		c.Selector = core.ReplicateNone{}
	}
	if !c.RatesSet && c.Rates == (fit.Rates{}) {
		c.Rates = fit.Roadrunner()
	}
	if c.Injector == nil {
		c.Injector = &fault.NoFaults{}
	}
	if c.Comparator == nil {
		c.Comparator = vote.Bitwise{}
	}
	if c.CheckpointCopies < 1 {
		c.CheckpointCopies = 1
	}
	if c.Voters < 1 {
		c.Voters = 1
	}
	if c.ExposureHours <= 0 {
		c.ExposureHours = 1
	}
	if c.MaxAttempts < 3 {
		c.MaxAttempts = 8
	}
	return c
}

// Stats are cumulative runtime counters. All fields are totals since New.
type Stats struct {
	Submitted      uint64
	Completed      uint64
	Replicated     uint64
	SDCDetected    uint64
	SDCRecovered   uint64
	DUERecovered   uint64
	UnprotectedSDC uint64
	UnprotectedDUE uint64
	VoteFailures   uint64
	Reexecutions   uint64
	// TaskTimeNs sums primary execution durations; ReplicatedTimeNs sums
	// primary durations of replicated tasks; RedundantTimeNs sums replica
	// and re-execution durations.
	TaskTimeNs       int64
	ReplicatedTimeNs int64
	RedundantTimeNs  int64
	// DepEdges is the number of dependency edges discovered.
	DepEdges int
	// Checkpoint is the checkpoint store's accounting.
	Checkpoint ckpt.Stats
}

// Add accumulates other into s, for aggregating counters across runtimes
// (e.g. the ranks of a dist.World). Counters, times and byte totals sum;
// Checkpoint.PeakLive and Copies take the maximum — a sum of peaks observed
// at different times is not a peak, so the aggregate reports the largest
// single-runtime peak (concurrent peaks are not tracked across runtimes).
func (s *Stats) Add(other Stats) {
	s.Submitted += other.Submitted
	s.Completed += other.Completed
	s.Replicated += other.Replicated
	s.SDCDetected += other.SDCDetected
	s.SDCRecovered += other.SDCRecovered
	s.DUERecovered += other.DUERecovered
	s.UnprotectedSDC += other.UnprotectedSDC
	s.UnprotectedDUE += other.UnprotectedDUE
	s.VoteFailures += other.VoteFailures
	s.Reexecutions += other.Reexecutions
	s.TaskTimeNs += other.TaskTimeNs
	s.ReplicatedTimeNs += other.ReplicatedTimeNs
	s.RedundantTimeNs += other.RedundantTimeNs
	s.DepEdges += other.DepEdges
	s.Checkpoint.Saves += other.Checkpoint.Saves
	s.Checkpoint.Restores += other.Checkpoint.Restores
	s.Checkpoint.BytesSaved += other.Checkpoint.BytesSaved
	s.Checkpoint.BytesLive += other.Checkpoint.BytesLive
	if other.Checkpoint.PeakLive > s.Checkpoint.PeakLive {
		s.Checkpoint.PeakLive = other.Checkpoint.PeakLive
	}
	if other.Checkpoint.Copies > s.Checkpoint.Copies {
		s.Checkpoint.Copies = other.Checkpoint.Copies
	}
}

// PctTasksReplicated returns 100 × Replicated / Completed.
func (s Stats) PctTasksReplicated() float64 {
	if s.Completed == 0 {
		return 0
	}
	return 100 * float64(s.Replicated) / float64(s.Completed)
}

// PctTimeReplicated returns 100 × ReplicatedTimeNs / TaskTimeNs.
func (s Stats) PctTimeReplicated() float64 {
	if s.TaskTimeNs == 0 {
		return 0
	}
	return 100 * float64(s.ReplicatedTimeNs) / float64(s.TaskTimeNs)
}

type task struct {
	id    uint64
	label string
	fn    TaskFunc
	args  []Arg
	est   fit.Task
	pDUE  float64
	pSDC  float64
	// comm marks a side-effecting communication task (dist.Send/Recv):
	// never replicated (a replica would duplicate the message) and never
	// fault-injected — the paper delegates communication failures to
	// complementary protocols (§VI, Martsinkevich et al.).
	comm bool
}

// bufs returns the task's real argument buffers, in argument order.
func (t *task) bufs() []buffer.Buffer {
	bufs := make([]buffer.Buffer, len(t.args))
	for i, a := range t.args {
		bufs[i] = a.Buf
	}
	return bufs
}

// Runtime executes submitted tasks. Create with New, submit with Submit,
// synchronize with Taskwait, stop with Shutdown.
type Runtime struct {
	cfg     Config
	pool    *sched.Pool
	tracker *deps.Tracker
	store   *ckpt.Store
	est     *fit.Estimator

	mu    sync.Mutex
	tasks map[uint64]*task

	nextID atomic.Uint64

	inflight   int
	inflightMu sync.Mutex
	inflightCv *sync.Cond

	workersWG sync.WaitGroup
	closed    atomic.Bool

	// blocked counts workers currently parked inside a blocking section of
	// a task body (EnterBlocking); spares counts the extra workers spawned
	// to cover for them; executing counts task bodies currently running.
	blocked   atomic.Int32
	spares    atomic.Int32
	executing atomic.Int32

	errMu    sync.Mutex
	firstErr error

	submitted, completed, replicated         atomic.Uint64
	sdcDetected, sdcRecovered, dueRecovered  atomic.Uint64
	unprotSDC, unprotDUE, voteFails, reexecs atomic.Uint64
	taskNs, replNs, redundantNs              atomic.Int64
}

// New starts a Runtime with cfg's workers running.
func New(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	r := &Runtime{
		cfg:     cfg,
		pool:    sched.NewPool(cfg.Workers),
		tracker: deps.NewTracker(),
		store:   ckpt.NewStore(cfg.CheckpointCopies),
		est:     fit.NewEstimator(cfg.Rates),
		tasks:   make(map[uint64]*task),
	}
	r.inflightCv = sync.NewCond(&r.inflightMu)
	for w := 0; w < cfg.Workers; w++ {
		r.workersWG.Add(1)
		go r.worker(w)
	}
	return r
}

// Workers returns the pool size.
func (r *Runtime) Workers() int { return r.cfg.Workers }

// Submit registers a task with its declared arguments and schedules it when
// its dependencies are satisfied. It returns the task id. Submit must not be
// called after Shutdown.
func (r *Runtime) Submit(label string, fn TaskFunc, args ...Arg) uint64 {
	return r.submit(label, fn, args, false)
}

// SubmitComm registers a side-effecting communication task: it participates
// in dependency tracking like any task but is never replicated and never
// fault-injected, because re-executing it would duplicate its external
// effect (a message). Fault tolerance for communication is the domain of
// the message-logging protocols the paper cites as complementary.
func (r *Runtime) SubmitComm(label string, fn TaskFunc, args ...Arg) uint64 {
	return r.submit(label, fn, args, true)
}

func (r *Runtime) submit(label string, fn TaskFunc, args []Arg, comm bool) uint64 {
	if r.closed.Load() {
		panic("rt: Submit after Shutdown")
	}
	id := r.nextID.Add(1)
	argBytes := int64(0)
	accesses := make([]deps.Access, len(args))
	for i, a := range args {
		accesses[i] = deps.Access{Key: a.Key, Mode: a.Mode}
		if a.Buf != nil {
			argBytes += a.Buf.SizeBytes()
		}
	}
	est := r.est.Estimate(id, argBytes)
	t := &task{
		id:    id,
		label: label,
		fn:    fn,
		args:  args,
		est:   est,
		pDUE:  fit.FailureProb(est.DUE, r.cfg.ExposureHours),
		pSDC:  fit.FailureProb(est.SDC, r.cfg.ExposureHours),
		comm:  comm,
	}
	if comm {
		t.pDUE, t.pSDC = 0, 0
	}
	r.mu.Lock()
	r.tasks[id] = t
	r.mu.Unlock()

	r.inflightMu.Lock()
	r.inflight++
	r.inflightMu.Unlock()
	r.submitted.Add(1)

	if r.tracker.Register(id, accesses) {
		r.pool.Submit(-1, id)
	}
	return id
}

// Taskwait blocks until every task submitted so far (and any recovery work)
// has completed. It is the dataflow barrier; unlike a fork-join join it does
// not prevent already-submitted independent tasks from overlapping.
func (r *Runtime) Taskwait() {
	r.inflightMu.Lock()
	for r.inflight > 0 {
		r.inflightCv.Wait()
	}
	r.inflightMu.Unlock()
}

// Shutdown waits for all tasks, stops the workers, and returns the first
// unrecoverable error (e.g. a failed majority vote), if any.
func (r *Runtime) Shutdown() error {
	r.Taskwait()
	if r.closed.CompareAndSwap(false, true) {
		r.pool.Close()
		r.workersWG.Wait()
	}
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.firstErr
}

// Err returns the first unrecoverable error observed so far.
func (r *Runtime) Err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.firstErr
}

// Stats returns a snapshot of the runtime counters.
func (r *Runtime) Stats() Stats {
	return Stats{
		Submitted:        r.submitted.Load(),
		Completed:        r.completed.Load(),
		Replicated:       r.replicated.Load(),
		SDCDetected:      r.sdcDetected.Load(),
		SDCRecovered:     r.sdcRecovered.Load(),
		DUERecovered:     r.dueRecovered.Load(),
		UnprotectedSDC:   r.unprotSDC.Load(),
		UnprotectedDUE:   r.unprotDUE.Load(),
		VoteFailures:     r.voteFails.Load(),
		Reexecutions:     r.reexecs.Load(),
		TaskTimeNs:       r.taskNs.Load(),
		ReplicatedTimeNs: r.replNs.Load(),
		RedundantTimeNs:  r.redundantNs.Load(),
		DepEdges:         r.tracker.Edges(),
		Checkpoint:       r.store.Stats(),
	}
}

func (r *Runtime) setErr(err error) {
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
}

func (r *Runtime) worker(w int) {
	defer r.workersWG.Done()
	for {
		id, ok := r.pool.Get(w)
		if !ok {
			return
		}
		r.mu.Lock()
		t := r.tasks[id]
		r.mu.Unlock()
		r.execute(t, w)
	}
}

// EnterBlocking marks the calling task body as about to park on an external
// event — a communication rendezvous, typically. The runtime guarantees a
// spare worker is running so the parked one does not reduce the pool's
// compute concurrency: without this, a pool whose every worker picked a
// blocking receive could never execute the very sends that would unblock
// them (the classic message-progress deadlock). Must be paired with
// ExitBlocking on the same goroutine. Spare workers report Ctx.Worker() ==
// Workers().
func (r *Runtime) EnterBlocking() {
	b := r.blocked.Add(1)
	for {
		s := r.spares.Load()
		if s >= b {
			return
		}
		if r.spares.CompareAndSwap(s, s+1) {
			r.workersWG.Add(1)
			go r.spare()
			return
		}
	}
}

// ExitBlocking ends a blocking section begun with EnterBlocking. The spare
// that covered for it retires lazily, once it finishes its current task and
// observes more spares than blocked workers.
func (r *Runtime) ExitBlocking() { r.blocked.Add(-1) }

// spare is a worker spawned by EnterBlocking. It draws from the global
// queue and steals from every deque (its index is out of the per-worker
// range), and it retires when no longer needed. The retire/spawn pair
// re-checks the opposite counter after its own write, so an EnterBlocking
// racing with a retirement always ends with spares ≥ blocked.
func (r *Runtime) spare() {
	defer r.workersWG.Done()
	for {
		for {
			s := r.spares.Load()
			if s <= r.blocked.Load() {
				break // still covering for someone
			}
			if r.spares.CompareAndSwap(s, s-1) {
				if r.blocked.Load() > s-1 {
					// Lost a race with a fresh EnterBlocking that saw the
					// pre-decrement count and skipped spawning: stay on.
					r.spares.Add(1)
					break
				}
				return
			}
		}
		id, ok := r.pool.Get(r.cfg.Workers)
		if !ok {
			return
		}
		r.mu.Lock()
		t := r.tasks[id]
		r.mu.Unlock()
		r.execute(t, r.cfg.Workers)
	}
}

// attemptResult is the outcome of one execution attempt of a task.
type attemptResult struct {
	outputs []buffer.Buffer // writable-arg buffers of this attempt, in arg order
	crashed bool
	dur     time.Duration
}

// pick returns, in argument order, the entries of bufs whose argument's
// mode satisfies keep: deps.Mode.Writes selects the outputs compared
// between attempts, deps.Mode.Reads the inputs a checkpoint covers.
func pick(args []Arg, bufs []buffer.Buffer, keep func(deps.Mode) bool) []buffer.Buffer {
	var out []buffer.Buffer
	for i, a := range args {
		if keep(a.Mode) {
			out = append(out, bufs[i])
		}
	}
	return out
}

// injectSDC silently flips the one bit of outs, taken as a single bit
// string, that the injector picks for this attempt: the SDC model.
func (r *Runtime) injectSDC(t *task, attempt int, outs []buffer.Buffer) {
	total := buffer.TotalBits(outs...)
	if total == 0 {
		return
	}
	bit := r.cfg.Injector.BitIndex(t.id, attempt, total)
	for _, b := range outs {
		if b == nil {
			continue
		}
		if bit < b.BitLen() {
			b.FlipBit(bit)
			return
		}
		bit -= b.BitLen()
	}
}

// runAttempt executes one attempt on the provided buffer set, drawing a
// fault outcome. A DUE crashes the attempt (partial writes may remain in the
// attempt's private buffers); an SDC completes and then silently flips one
// bit of one writable buffer.
func (r *Runtime) runAttempt(t *task, bufs []buffer.Buffer, attempt, w int) attemptResult {
	outcome := r.cfg.Injector.Draw(t.id, attempt, t.pDUE, t.pSDC)
	start := time.Now()
	res := attemptResult{outputs: pick(t.args, bufs, deps.Mode.Writes)}
	if outcome == fault.DUE {
		// The crash interrupts the execution: we model the lost work as a
		// partial write by corrupting the first writable buffer, then
		// abandoning the attempt.
		if len(res.outputs) > 0 {
			b := res.outputs[0]
			if b.BitLen() > 0 {
				b.FlipBit(r.cfg.Injector.BitIndex(t.id, attempt, b.BitLen()))
			}
		}
		res.crashed = true
		res.dur = time.Since(start)
		return res
	}
	ctx := &Ctx{bufs: bufs, attempt: attempt, worker: w, taskID: t.id}
	t.fn(ctx)
	if outcome == fault.SDC {
		r.injectSDC(t, attempt, res.outputs)
	}
	res.dur = time.Since(start)
	return res
}

// cloneExecBufs builds a private buffer set for a redundant execution:
// read-only args are shared (both executions only read them), writable args
// are deep-copied so the attempts cannot see each other's writes.
func cloneExecBufs(args []Arg) []buffer.Buffer {
	bufs := make([]buffer.Buffer, len(args))
	for i, a := range args {
		if a.Buf == nil {
			continue
		}
		if a.Mode.Writes() {
			bufs[i] = a.Buf.Clone()
		} else {
			bufs[i] = a.Buf
		}
	}
	return bufs
}

// Executing returns the number of task bodies currently running, including
// bodies parked in a blocking section. Together with ReadyPending it lets a
// communication layer detect quiescence (see internal/dist's watchdog).
func (r *Runtime) Executing() int { return int(r.executing.Load()) }

// ReadyPending returns the number of ready tasks not yet claimed by a
// worker.
func (r *Runtime) ReadyPending() int { return r.pool.Pending() }

func (r *Runtime) execute(t *task, w int) {
	r.executing.Add(1)
	defer r.executing.Add(-1)
	rec := trace.Record{
		TaskID:   t.id,
		Label:    t.label,
		Worker:   w,
		ArgBytes: t.est.ArgBytes,
		FITDue:   t.est.DUE,
		FITSdc:   t.est.SDC,
		Start:    time.Now(),
	}
	replicate := false
	if !t.comm {
		replicate = r.cfg.Selector.Decide(t.est)
	}
	if replicate {
		r.replicated.Add(1)
		r.executeReplicated(t, w, &rec)
	} else {
		r.executeUnprotected(t, w, &rec)
	}
	rec.Replicated = replicate
	if !t.comm {
		r.cfg.Selector.Observe(t.est, replicate)
	}
	r.completed.Add(1)
	r.taskNs.Add(int64(rec.Duration))
	if replicate {
		r.replNs.Add(int64(rec.Duration))
	}
	r.redundantNs.Add(int64(rec.ReplicaDur + rec.ReexecDur))
	if r.cfg.Tracer != nil {
		r.cfg.Tracer.Add(rec)
	}

	// Release all successors onto this worker's deque in one batch: one
	// lock acquisition and at most len(batch) targeted wakes per completion,
	// instead of a lock+wake per successor.
	if succs := r.tracker.Complete(t.id); len(succs) > 0 {
		r.pool.SubmitBatch(w, succs)
	}
	r.mu.Lock()
	delete(r.tasks, t.id)
	r.mu.Unlock()

	r.inflightMu.Lock()
	r.inflight--
	if r.inflight == 0 {
		r.inflightCv.Broadcast()
	}
	r.inflightMu.Unlock()
}

// executeUnprotected runs the task once, in place on the real buffers. A DUE
// here would crash the real application; the simulator records the event and
// re-runs the body so downstream tasks still get data (the event count is
// the experiment's measure of unprotected risk). An SDC here silently
// corrupts the real output — it propagates, exactly the threat model.
func (r *Runtime) executeUnprotected(t *task, w int, rec *trace.Record) {
	bufs := t.bufs()
	outcome := fault.None
	if !t.comm {
		outcome = r.cfg.Injector.Draw(t.id, 0, t.pDUE, t.pSDC)
	}
	start := time.Now()
	ctx := &Ctx{bufs: bufs, attempt: 0, worker: w, taskID: t.id}
	t.fn(ctx)
	rec.Duration = time.Since(start)
	rec.Attempts = 1
	switch outcome {
	case fault.DUE:
		r.unprotDUE.Add(1)
		rec.Events = append(rec.Events, trace.UnprotectedDUE)
	case fault.SDC:
		r.injectSDC(t, 0, pick(t.args, bufs, deps.Mode.Writes))
		r.unprotSDC.Add(1)
		rec.Events = append(rec.Events, trace.UnprotectedSDC)
	}
}

// executeReplicated implements Figure 2's mechanism — checkpoint, clone,
// run, compare bytes, adopt or restore — and leaves every adopt, re-execute
// or fail decision to vote.Recovery.
func (r *Runtime) executeReplicated(t *task, w int, rec *trace.Record) {
	cmp := vote.Panel{Cmp: r.cfg.Comparator, N: r.cfg.Voters}

	// Step 1: checkpoint the inputs.
	r.store.Save(t.id, pick(t.args, t.bufs(), deps.Mode.Reads))
	rec.Events = append(rec.Events, trace.Checkpointed)
	defer r.store.Release(t.id)

	// Step 2: duplicate descriptor; both attempts get private writable
	// buffers so the real buffers keep the pristine inputs during
	// execution (the in-memory equivalent of executing from the
	// checkpointed state).
	primaryBufs := cloneExecBufs(t.args)
	replicaBufs := cloneExecBufs(t.args)
	rec.Events = append(rec.Events, trace.ReplicaCreated)

	var replicaRes attemptResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the replica runs on a spare core
		defer wg.Done()
		replicaRes = r.runAttempt(t, replicaBufs, 1, w)
	}()
	primaryRes := r.runAttempt(t, primaryBufs, 0, w)
	wg.Wait()

	rec.Duration = primaryRes.dur
	rec.ReplicaDur = replicaRes.dur
	rec.Attempts = 2

	// Steps 3-5: compare each surviving result with every earlier one and
	// let the policy decide. The adopted result is the earlier member of
	// the agreeing pair.
	dec := vote.Recovery{MaxAttempts: r.cfg.MaxAttempts}
	var survivors [][]buffer.Buffer
	var agreed []buffer.Buffer
	observe := func(res attemptResult) {
		if res.crashed {
			dec.Observe(vote.Crashed)
			return
		}
		o := vote.Disagreed
		for _, prev := range survivors {
			if cmp.Equal(prev, res.outputs) {
				o, agreed = vote.Agreed, prev
				break
			}
		}
		dec.Observe(o)
		survivors = append(survivors, res.outputs)
	}
	observe(primaryRes)
	observe(replicaRes)
	for {
		act, c := dec.Decide()
		// The trace marks the comparisons that settle the pair's fate:
		// the first disagreement, or primary and replica agreeing outright.
		if c.SDCDetected > 0 || (act == vote.Adopt && dec.Attempts() == 2) {
			rec.Events = append(rec.Events, trace.Compared)
		}
		if c.SDCDetected > 0 {
			r.sdcDetected.Add(1)
			rec.Events = append(rec.Events, trace.SDCDetected)
		}
		switch act {
		case vote.Adopt:
			if c.SDCRecovered > 0 {
				r.sdcRecovered.Add(1)
				rec.Events = append(rec.Events, trace.Voted)
			}
			if c.DUERecovered > 0 {
				r.dueRecovered.Add(1)
				rec.Events = append(rec.Events, trace.DUERecovered)
			}
			r.adopt(t, agreed)
			return
		case vote.Fail:
			r.voteFails.Add(1)
			rec.Events = append(rec.Events, trace.VoteFailed)
			r.setErr(fmt.Errorf("rt: task %d: %w", t.id, vote.ErrNoMajority{}))
			return
		}
		r.reexecs.Add(1)
		observe(r.reexecute(t, w, dec.Attempts(), rec))
	}
}

// adopt copies an agreed result set into the task's real writable buffers.
func (r *Runtime) adopt(t *task, outs []buffer.Buffer) {
	k := 0
	for _, a := range t.args {
		if !a.Mode.Writes() {
			continue
		}
		if a.Buf != nil {
			if err := a.Buf.CopyFrom(outs[k]); err != nil {
				r.setErr(fmt.Errorf("rt: task %d adopt result: %w", t.id, err))
			}
		}
		k++
	}
}

// reexecute restores the task's inputs from its checkpoint into a fresh,
// fully private buffer set and runs one more attempt. Every argument is
// cloned (read-only ones included) so the restore never writes to a buffer
// another in-flight task may be reading.
func (r *Runtime) reexecute(t *task, w, attempt int, rec *trace.Record) attemptResult {
	bufs := make([]buffer.Buffer, len(t.args))
	for i, a := range t.args {
		if a.Buf != nil {
			bufs[i] = a.Buf.Clone()
		}
	}
	if err := r.store.Restore(t.id, pick(t.args, bufs, deps.Mode.Reads)); err != nil {
		r.setErr(fmt.Errorf("rt: task %d restore: %w", t.id, err))
	}
	rec.Events = append(rec.Events, trace.Restored, trace.Reexecuted)
	res := r.runAttempt(t, bufs, attempt, w)
	rec.ReexecDur += res.dur
	rec.Attempts++
	return res
}
