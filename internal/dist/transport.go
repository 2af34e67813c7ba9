// Transport is the message-moving layer under a World. The runtime side of
// dist (Send/Recv comm tasks, collectives) is transport-agnostic: it seals a
// snapshot of the sender's buffer into a payload and asks the Transport to
// deliver it to the matching mailbox. Two implementations ship:
//
//   - Direct: an in-process matcher — a tag+partner rendezvous table with
//     FIFO delivery per mailbox. This is the default and the fastest path.
//   - Sim: Direct plus a virtual interconnect clock — every payload is
//     charged latency and bandwidth through internal/simnet's cost model
//     (per-link serialization included), so a World can report the
//     communication makespan a real fabric would impose.
package dist

import (
	"errors"
	"sync"

	"appfit/internal/buffer"
)

// Class separates traffic kinds so the tags of collective plumbing can never
// collide with user-chosen point-to-point tags.
type Class uint8

const (
	// ClassP2P is user Send/Recv traffic.
	ClassP2P Class = iota
	// ClassBarrier is dissemination-barrier plumbing.
	ClassBarrier
	// ClassBcast is broadcast-tree traffic.
	ClassBcast
	// ClassReduce is reduction gather traffic.
	ClassReduce
	// ClassGather is allgather-ring traffic.
	ClassGather
	// ClassRedScat is ring reduce-scatter traffic.
	ClassRedScat
	// ClassTree is recursive-doubling tree-allreduce traffic.
	ClassTree
	// ClassGatherv is non-uniform allgather (Allgatherv) traffic.
	ClassGatherv
	// ClassRedScatv is non-uniform reduce-scatter (ReduceScatterv) traffic.
	ClassRedScatv
	// ClassRab is Rabenseifner allreduce (recursive halving + doubling)
	// traffic.
	ClassRab
)

// Match identifies one mailbox: a communicator context, a directed
// (Src, Dst) link — always *world* rank ids, so transports can charge the
// physical link regardless of which communicator the traffic belongs to —
// plus a class, a tag, and a class-private subchannel (the dissemination
// round for barriers, the root for broadcast/reduce trees, the ring or
// doubling step for allgather/reduce-scatter/tree traffic), so two same-tag
// collectives rooted differently can never share a mailbox. Ctx is the
// communicator context id minted at Split time (0 for the world
// communicator): two communicators can carry identical (Src, Dst, Class,
// Tag, Sub) traffic and never rendezvous with each other. Messages with the
// same Match deliver in FIFO order.
type Match struct {
	Ctx      uint64
	Src, Dst int
	Class    Class
	Tag      int
	Sub      int
}

// ErrClosed is returned by Recv when the transport is closed while the
// receive is still unmatched — a shutdown with a dangling Recv.
var ErrClosed = errors.New("dist: transport closed with pending receive")

// Transport moves sealed payloads between ranks. Implementations must be
// safe for concurrent use by all ranks' workers.
type Transport interface {
	// Send delivers payload to m's mailbox. The payload is private to the
	// transport from this point on (the caller has already snapshotted it).
	Send(m Match, payload buffer.Buffer)
	// Recv blocks until a message is available in m's mailbox and returns
	// the oldest one.
	Recv(m Match) (buffer.Buffer, error)
	// Close unblocks every pending Recv with ErrClosed.
	Close()
}

// waitQueue parks the receivers blocked on one mailbox. Its condition
// variable shares the table's mutex, so a Send wakes only receivers that can
// take its message; parked counts them, so the queue is dropped when its
// last receiver leaves.
type waitQueue struct {
	cond   sync.Cond
	parked int
}

// Direct is the in-process rendezvous matcher: an eager-send mailbox table
// keyed by Match, FIFO per mailbox, with receivers blocking until a matching
// message arrives. One mutex guards the table; receivers park on a wait
// queue per mailbox (see DESIGN.md §6).
type Direct struct {
	mu      sync.Mutex
	queues  map[Match][]buffer.Buffer // guarded by mu
	waiters map[Match]*waitQueue      // guarded by mu
	closed  bool                      // guarded by mu
}

// NewDirect returns an empty matcher.
func NewDirect() *Direct {
	return &Direct{
		queues:  make(map[Match][]buffer.Buffer),
		waiters: make(map[Match]*waitQueue),
	}
}

// Send implements Transport: the message is buffered immediately (MPI
// eager mode); the sender never blocks on the receiver. At most one
// receiver parked on m is woken: every one of them can take the message,
// and one message satisfies only one.
func (d *Direct) Send(m Match, payload buffer.Buffer) {
	d.mu.Lock()
	d.queues[m] = append(d.queues[m], payload)
	if w := d.waiters[m]; w != nil {
		w.cond.Signal()
	}
	d.mu.Unlock()
}

// Recv implements Transport.
func (d *Direct) Recv(m Match) (buffer.Buffer, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if q := d.queues[m]; len(q) > 0 {
			p := q[0]
			if len(q) == 1 {
				delete(d.queues, m)
			} else {
				// Nil the popped head before reslicing: q[1:] shares the
				// backing array, which would otherwise keep the delivered
				// payload reachable until the whole mailbox drains.
				q[0] = nil
				d.queues[m] = q[1:]
			}
			return p, nil
		}
		if d.closed {
			return nil, ErrClosed
		}
		w := d.waiters[m]
		if w == nil {
			w = &waitQueue{}
			w.cond.L = &d.mu
			d.waiters[m] = w
		}
		w.parked++
		w.cond.Wait()
		w.parked--
		if w.parked == 0 {
			delete(d.waiters, m)
		}
	}
}

// Close implements Transport.
func (d *Direct) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	for _, w := range d.waiters {
		w.cond.Broadcast()
	}
}

// Pending returns the number of sent-but-unreceived messages; tests use it
// to assert a World drained its traffic.
func (d *Direct) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, q := range d.queues {
		n += len(q)
	}
	return n
}
