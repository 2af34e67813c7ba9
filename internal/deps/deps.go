// Package deps builds the task dependency graph from declared data accesses,
// exactly as a dataflow runtime like Nanos does (paper §II-B): tasks are
// registered in program order, each declaring the regions it reads (in),
// writes (out) or both (inout); the tracker derives read-after-write,
// write-after-read and write-after-write edges and maintains the ready set.
//
// Regions are identified by opaque string keys (e.g. "A[2][3]"); the runtime
// layers actual buffers on top. The tracker is safe for a single registering
// goroutine with concurrent completions, which matches how a task-parallel
// program submits: one main thread creates tasks while workers finish them.
//
// The RAW/WAR/WAW rule itself lives in Regions, so the virtual-time
// simulator's job builder derives exactly the edges the runtime's Tracker
// does. The Tracker is one mutex over a region history and a table of live
// nodes (see DESIGN.md §6).
package deps

import (
	"fmt"
	"sync"
)

// Mode declares how a task accesses a region.
type Mode int

const (
	// In declares a read-only access.
	In Mode = iota
	// Out declares a write-only access (the previous value is not read).
	Out
	// Inout declares a read-modify-write access.
	Inout
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case In:
		return "in"
	case Out:
		return "out"
	case Inout:
		return "inout"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Reads reports whether the mode implies reading the prior value.
func (m Mode) Reads() bool { return m == In || m == Inout }

// Writes reports whether the mode implies writing a new value.
func (m Mode) Writes() bool { return m == Out || m == Inout }

// Access is one declared (region, mode) pair.
type Access struct {
	Key  string
	Mode Mode
}

// Edge is one dependency the RAW/WAR/WAW rule derives for a new task: Pred
// must finish before it. Access indexes the new task's access list at the
// declaration that created the edge; RAW reports whether that declaration
// reads the value Pred wrote (read-after-write), as opposed to only being
// ordered behind Pred (write-after-write, write-after-read).
type Edge struct {
	Pred   uint64
	Access int
	RAW    bool
}

// regionState tracks, per region, the last task that wrote it and the tasks
// that have read it since that write. Writers depend on the previous writer
// (WAW) and all readers since (WAR); readers depend on the last writer (RAW).
type regionState struct {
	lastWriter uint64 // 0 = none
	readers    []uint64
}

// Regions is the access history the dependency rule runs over. It is the
// one edge-derivation rule of the repo: the online Tracker and the
// simulator's job builder both derive their edges through Add. The zero
// value is ready to use; it is not safe for concurrent use.
type Regions struct {
	m      map[string]*regionState
	states []*regionState // Add's scratch, one per access
}

// Add derives the edges of task id (nonzero, added in program order) from
// its declared accesses and appends them to dst, then records the task in
// the history. Every access is scanned against the history before any of
// it is updated, so a task that both reads and writes disjoint declarations
// of the same key behaves like inout. Edges come out in access order, and a
// predecessor may appear more than once (through several accesses, or as
// both RAW and WAW of one inout); callers deduplicate.
func (r *Regions) Add(dst []Edge, id uint64, accesses []Access) []Edge {
	if r.m == nil {
		r.m = make(map[string]*regionState)
	}
	r.states = r.states[:0]
	for i, a := range accesses {
		rs := r.m[a.Key]
		if rs == nil {
			rs = &regionState{}
			r.m[a.Key] = rs
		}
		r.states = append(r.states, rs)
		if a.Mode.Reads() && rs.lastWriter != 0 {
			dst = append(dst, Edge{Pred: rs.lastWriter, Access: i, RAW: true})
		}
		if a.Mode.Writes() {
			if rs.lastWriter != 0 {
				dst = append(dst, Edge{Pred: rs.lastWriter, Access: i}) // WAW
			}
			for _, rd := range rs.readers {
				dst = append(dst, Edge{Pred: rd, Access: i}) // WAR
			}
		}
	}
	for i, a := range accesses {
		rs := r.states[i]
		if a.Mode.Writes() {
			rs.lastWriter = id
			rs.readers = rs.readers[:0]
		}
		if a.Mode == In {
			rs.readers = append(rs.readers, id)
		}
	}
	return dst
}

// node is one registered, not yet completed task: its count of unfinished
// predecessors and the tasks waiting on it.
type node struct {
	id         uint64
	pending    int
	successors []*node
}

// Tracker builds the dependency graph incrementally and reports readiness.
// One mutex guards all of it: the runtime already serializes Submit and
// every completion on its own lock, so striping the tracker could not
// remove any serialization (see DESIGN.md §6). Register is called in
// program order (the program's submitting thread); Complete, Pending,
// Edges and Tasks may be called concurrently from any goroutine.
type Tracker struct {
	mu      sync.Mutex
	regions Regions          // guarded by mu
	nodes   map[uint64]*node // guarded by mu; completed nodes are freed
	scratch []Edge           // guarded by mu; Register's edge buffer
	edges   int              // guarded by mu
	tasks   int              // guarded by mu
}

// NewTracker returns an empty Tracker.
func NewTracker() *Tracker {
	return &Tracker{nodes: make(map[uint64]*node)}
}

// Register adds task id (must be nonzero and never used before) with its
// declared accesses, in program order. It returns true if the task has no
// unfinished predecessors and is immediately ready to run.
//
// Duplicate detection is best-effort: reusing a live id panics, but because
// completed nodes are freed (the tracker's memory tracks the live frontier,
// not every task ever run), reusing an already-completed id is not caught.
// The runtime's monotonically increasing ids never reuse either way.
func (t *Tracker) Register(id uint64, accesses []Access) (ready bool) {
	if id == 0 {
		panic("deps: task id 0 is reserved")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.nodes[id]; dup {
		panic(fmt.Sprintf("deps: duplicate task id %d", id))
	}
	n := &node{id: id}
	t.nodes[id] = n
	t.tasks++
	t.scratch = t.regions.Add(t.scratch[:0], id, accesses)
	for _, e := range t.scratch {
		p := t.nodes[e.Pred]
		if p == nil {
			continue // predecessor already completed
		}
		// Every edge of n is appended during this call, so a predecessor
		// already holding n holds it last.
		if k := len(p.successors); k > 0 && p.successors[k-1] == n {
			continue
		}
		p.successors = append(p.successors, n)
		n.pending++
	}
	t.edges += n.pending
	return n.pending == 0
}

// Complete marks task id finished and returns the ids of successor tasks
// that became ready as a result, as a batch the caller can hand to the
// scheduler in one submission. Each task must be completed exactly once.
func (t *Tracker) Complete(id uint64) (newlyReady []uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.nodes[id]
	if n == nil {
		panic(fmt.Sprintf("deps: Complete of unknown or already-completed task %d", id))
	}
	delete(t.nodes, id)
	for _, s := range n.successors {
		s.pending--
		switch {
		case s.pending == 0:
			newlyReady = append(newlyReady, s.id)
		case s.pending < 0:
			panic(fmt.Sprintf("deps: negative pending for task %d", s.id))
		}
	}
	return newlyReady
}

// Pending returns the number of unfinished predecessors of id, or -1 if the
// task is unknown (never registered, or already completed). It is intended
// for tests and introspection.
func (t *Tracker) Pending(id uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.nodes[id]
	if n == nil {
		return -1
	}
	return n.pending
}

// Edges returns the total number of dependency edges created so far.
func (t *Tracker) Edges() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.edges
}

// Tasks returns the number of tasks registered so far.
func (t *Tracker) Tasks() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tasks
}

// Reset clears all state so the tracker can be reused for a fresh graph.
func (t *Tracker) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.regions = Regions{}
	t.nodes = make(map[uint64]*node)
	t.edges = 0
	t.tasks = 0
}
