// Dependency-gated collectives, scoped to a communicator. Each collective
// is decomposed into the same comm-task primitive Send/Recv use, submitted
// into every member rank's dataflow graph, so a collective overlaps with
// unrelated computation and orders itself against related computation
// purely through region accesses — there is no world-wide synchronous call.
//
// Two ordering mechanisms are at work:
//
//   - data-carrying collectives (Broadcast, Allgather, Allreduce,
//     ReduceScatter) chain through the user's region itself: a tree rank's
//     forwarding sends read the region its receive wrote — and a ring
//     rank forwards the block its previous-step receive delivered — so the
//     dataflow tracker orders them;
//   - Barrier has no payload, so its rounds serialize through an Inout
//     access on a reserved per-member token region (Comm.tokArg) instead;
//     the same token orders back-to-back collectives of one communicator on
//     one member.
//
// Tags: a collective's plumbing lives in its own Match class with a
// class-private subchannel (the barrier round, the tree root, the ring or
// doubling step), so user tags can never collide with it and same-tag
// collectives rooted differently never share a mailbox; the communicator
// context id keeps even identical plumbing of two communicators apart. Two
// same-tag same-root collectives outstanding at once on one communicator
// stay FIFO-consistent because the token serializes each member's plumbing
// in submission order.
//
// Reduction algorithm selection: Allreduce picks between two algorithms by
// vector length. Short vectors use the gather+broadcast tree rooted at
// member 0 (AllreduceGather) — 2(n−1) messages and a single deterministic
// fold, valid for any ReduceOp. Long vectors (≥ TreeAllreduceCrossoverBytes
// per member) use recursive doubling (AllreduceTree): ⌈log2 n⌉ exchange
// rounds with every member folding in parallel, so no member ever holds
// more than one extra vector and the root hotspot disappears — at the price
// of requiring a commutative op (the builtin OpSum/OpMin/OpMax all are).
package dist

import (
	"fmt"
	"math/bits"
	"reflect"

	"appfit/internal/buffer"
	"appfit/internal/rt"
)

// collKey is the reserved region prefix for collective plumbing; user
// region names must not start with it.
const collKey = "\x00dist"

// Subchannel values for tree pre/post fold traffic, outside the range the
// doubling rounds (Sub = round index) can reach.
const (
	subTreePre  = 1 << 20
	subTreePost = 1<<20 + 1
)

// checkMembers records a World error and reports false when a collective's
// per-member argument slice does not have exactly one entry per member.
func (c *Comm) checkMembers(op string, got int) bool {
	if got != len(c.members) {
		c.w.addErr(fmt.Errorf("dist: %s on a %d-member communicator with %d buffers: %w",
			op, len(c.members), got, ErrCollectiveArgs))
		return false
	}
	return true
}

// barrierRounds is the number of dissemination rounds for n ranks.
func barrierRounds(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Barrier submits member cr's side of a dissemination barrier over its
// communicator: ceil(log2 n) rounds where round k sends an empty frame to
// comm rank (r+2^k) mod n and waits for one from (r-2^k) mod n. Every
// member must call Barrier once with the same tag. The optional args gate
// the barrier in the member's dataflow graph: tasks the args depend on run
// before the barrier, tasks depending on them run after it. With no args
// the barrier only orders against other collectives of this communicator on
// the member (via the token region), not against compute.
func (cr *CommRank) Barrier(tag int, args ...rt.Arg) {
	if cr.id < 0 {
		return // Comm.Rank already recorded the error
	}
	c := cr.c
	n := len(c.members)
	if n == 1 {
		return
	}
	r := c.members[cr.id]
	gate := make([]rt.Arg, 0, len(args)+1)
	gate = append(gate, args...)
	gate = append(gate, c.tokArg(cr.id))
	for k := 0; k < barrierRounds(n); k++ {
		step := 1 << k
		to := (cr.id + step) % n
		from := ((cr.id-step)%n + n) % n
		r.commSend(fmt.Sprintf("barrier:%d/%d", tag, k),
			Match{Ctx: c.ctx, Src: r.id, Dst: c.worldID(to), Class: ClassBarrier, Tag: tag, Sub: k}, -1, gate...)
		r.commRecv(fmt.Sprintf("barrier:%d/%d", tag, k),
			Match{Ctx: c.ctx, Src: c.worldID(from), Dst: r.id, Class: ClassBarrier, Tag: tag, Sub: k}, -1, gate...)
	}
}

// Barrier submits a barrier over all members, gated only on each member's
// collective token (see CommRank.Barrier for data-gated barriers).
func (c *Comm) Barrier(tag int) {
	for i := range c.members {
		c.handles[i].Barrier(tag)
	}
}

// Broadcast replicates root's buffer into every member's buffer for region
// name. On a communicator whose topology is non-flat (see Hierarchical) it
// runs the hierarchical algorithm (BroadcastHier); otherwise the binomial
// tree (BroadcastFlat). Both move bitwise-identical payloads; only the
// routing — and therefore the fabric cost — differs.
func (c *Comm) Broadcast(root, tag int, name string, bufs []buffer.Buffer) {
	if c.hier {
		c.BroadcastHier(root, tag, name, bufs)
		return
	}
	c.BroadcastFlat(root, tag, name, bufs)
}

// BroadcastFlat replicates root's buffer into every member's buffer for
// region name through a binomial tree of dependency-gated transfers:
// relative rank j receives from j − 2^⌊log2 j⌋ and forwards to every
// j + 2^k with 2^k > j. bufs[i] is comm rank i's buffer; all must match
// root's type and length. Intermediate members forward only after their
// receive wrote the region, so the whole tree is ordered by the dataflow
// tracker alone. An out-of-range root or a bufs slice of the wrong length
// records a World error and submits nothing.
func (c *Comm) BroadcastFlat(root, tag int, name string, bufs []buffer.Buffer) {
	n := len(c.members)
	if !c.checkMembers("Broadcast", len(bufs)) {
		return
	}
	if root < 0 || root >= n {
		c.w.addErr(fmt.Errorf("dist: Broadcast root %d of %d members: %w", root, n, ErrRankOutOfRange))
		return
	}
	if n == 1 {
		return
	}
	for i := 0; i < n; i++ {
		rel := ((i-root)%n + n) % n
		r := c.members[i]
		if rel != 0 {
			parentRel := rel - 1<<(bits.Len(uint(rel))-1)
			parent := (parentRel + root) % n
			r.commRecv(fmt.Sprintf("bcast:%s<%d", name, parent),
				Match{Ctx: c.ctx, Src: c.worldID(parent), Dst: r.id, Class: ClassBcast, Tag: tag, Sub: root},
				0, rt.Out(name, bufs[i]), c.tokArg(i))
		}
		for k := bits.Len(uint(rel)); rel+1<<k < n; k++ {
			child := (rel + 1<<k + root) % n
			r.commSend(fmt.Sprintf("bcast:%s>%d", name, child),
				Match{Ctx: c.ctx, Src: r.id, Dst: c.worldID(child), Class: ClassBcast, Tag: tag, Sub: root},
				0, rt.In(name, bufs[i]), c.tokArg(i))
		}
	}
}

// Allgather leaves every member holding every member's block for the named
// regions. On a communicator whose topology is non-flat (see Hierarchical)
// it runs the hierarchical algorithm (AllgatherHier); otherwise the ring
// (AllgatherFlat). Both move bitwise-identical payloads; only the routing —
// and therefore the fabric cost — differs.
func (c *Comm) Allgather(tag int, name func(j int) string, bufs [][]buffer.Buffer) {
	if c.hier {
		c.AllgatherHier(tag, name, bufs)
		return
	}
	c.AllgatherFlat(tag, name, bufs)
}

// AllgatherFlat leaves every member holding every member's block for the
// named regions, via the ring algorithm: in step s of n−1, each member forwards
// to its right neighbor (comm rank order) the block it received in step s−1
// (its own block in step 0) and receives one from its left neighbor —
// n(n−1) messages total, every one over a ring link, with no root hotspot.
// bufs[i][j] is comm rank i's buffer for block j; comm rank i's own
// bufs[i][i] is the source and all must match it in type and length.
// name(j) is block j's region key on every member, so the forwarding send
// of step s is dataflow-gated on the receive of step s−1, and compute
// reading name(j) is gated on the step that delivers block j — the ring
// pipelines with computation member by member.
//
// Plumbing travels in ClassGather — its own Match class, so it can never
// collide with a same-tag Broadcast — with the ring step as the subchannel,
// so a step-s frame can never match a step-s′ receive even when an eager
// sender runs two forwards back-to-back.
func (c *Comm) AllgatherFlat(tag int, name func(j int) string, bufs [][]buffer.Buffer) {
	n := len(c.members)
	if !c.checkMembers("Allgather", len(bufs)) {
		return
	}
	for i := range bufs {
		if !c.checkMembers(fmt.Sprintf("Allgather member %d blocks", i), len(bufs[i])) {
			return
		}
	}
	if n == 1 {
		return
	}
	for step := 0; step < n-1; step++ {
		for i, r := range c.members {
			fwd := ((i-step)%n + n) % n   // block forwarded right this step
			inc := ((i-step-1)%n + n) % n // block arriving from the left
			right, left := (i+1)%n, ((i-1)%n+n)%n
			r.commSend(fmt.Sprintf("allgather:%s>%d", name(fwd), right),
				Match{Ctx: c.ctx, Src: r.id, Dst: c.worldID(right), Class: ClassGather, Tag: tag, Sub: step},
				0, rt.In(name(fwd), bufs[i][fwd]), c.tokArg(i))
			r.commRecv(fmt.Sprintf("allgather:%s<%d", name(inc), left),
				Match{Ctx: c.ctx, Src: c.worldID(left), Dst: r.id, Class: ClassGather, Tag: tag, Sub: step},
				0, rt.Out(name(inc), bufs[i][inc]), c.tokArg(i))
		}
	}
}

// ReduceOp combines src into dst element-wise (len(dst) == len(src)). The
// reduction runs as an ordinary compute task, so an op must be deterministic
// in its arguments — the replication engine compares outputs bitwise, and a
// nondeterministic op would be reported as silent data corruption.
type ReduceOp func(dst, src []float64)

// Predefined reduction operators. All three are commutative, so they are
// valid for every Allreduce algorithm.
var (
	// OpSum accumulates dst[j] += src[j].
	OpSum ReduceOp = func(dst, src []float64) {
		for j := range dst {
			dst[j] += src[j]
		}
	}
	// OpMin keeps the element-wise minimum.
	OpMin ReduceOp = func(dst, src []float64) {
		for j := range dst {
			if src[j] < dst[j] {
				dst[j] = src[j]
			}
		}
	}
	// OpMax keeps the element-wise maximum.
	OpMax ReduceOp = func(dst, src []float64) {
		for j := range dst {
			if src[j] > dst[j] {
				dst[j] = src[j]
			}
		}
	}
)

// Allreduce algorithm-selection crossovers, in per-member payload BYTES —
// not element counts, so the selection stays right whatever the element
// width and, crucially, when the hierarchical leader phase re-dispatches on
// non-uniform leader vectors: the leaders' Allreduce sees the same
// byte-based rule the flat path does.
const (
	// TreeAllreduceCrossoverBytes is where Allreduce leaves the
	// gather+broadcast algorithm for the recursive-doubling tree. Below it,
	// the 2(n−1) small messages of the gather win; at and above it, moving
	// ⌈log2 n⌉ full vectors per member in parallel beats funnelling n−1 of
	// them through member 0 (BenchmarkAllreduceTreeVsGather in
	// internal/bench/scale records the trade-off).
	TreeAllreduceCrossoverBytes = 4096
	// RabenseifnerCrossoverBytes is where the tree yields to Rabenseifner's
	// reduce-scatter + allgather: past it the tree's V·log2(p) bytes per
	// member dwarf Rabenseifner's ~2·V, and the doubled message count stops
	// mattering (BenchmarkAllreduceRabVsTree records the trade-off at
	// 64–256 ranks).
	RabenseifnerCrossoverBytes = 64 << 10
)

// allreducePayloadBytes is the per-member payload the auto-selection
// compares against the crossovers: the smallest member buffer, so a ragged
// argument slice can never over-select an algorithm some member's vector is
// too short for.
func allreducePayloadBytes(bufs []buffer.F64) int64 {
	min := bufs[0].SizeBytes()
	for _, b := range bufs[1:] {
		if s := b.SizeBytes(); s < min {
			min = s
		}
	}
	return min
}

// Allreduce leaves op's reduction of every member's float64 buffer for
// region name in all of them. On a communicator whose topology is non-flat
// (see Hierarchical) it runs the hierarchical algorithm (AllreduceHier):
// node-local fold → leader exchange → node-local fan-out, so full vectors
// cross the wire once per node instead of once per member — and the leader
// exchange re-enters this selection, so large leader vectors take the
// Rabenseifner path automatically. Otherwise it selects the flat algorithm
// by per-member payload bytes: below TreeAllreduceCrossoverBytes the
// gather+broadcast (AllreduceGather), from there to
// RabenseifnerCrossoverBytes the recursive-doubling tree (AllreduceTree),
// and past that Rabenseifner's bandwidth-optimal reduce-scatter + allgather
// (AllreduceRabenseifner). The hierarchical fold (which groups and reorders
// operands by node), the tree and Rabenseifner all require a commutative
// op, so auto-selection dispatches to them only for the builtin
// OpSum/OpMin/OpMax; a custom op — whose commutativity the runtime cannot
// see — always takes the gather path, which folds in strict comm-rank order
// and is valid for any deterministic op, placed or not. Call AllreduceHier,
// AllreduceTree or AllreduceRabenseifner explicitly for a custom op you
// know is commutative.
func (c *Comm) Allreduce(tag int, name string, bufs []buffer.F64, op ReduceOp) {
	if c.hier && builtinCommutative(op) {
		c.AllreduceHier(tag, name, bufs, op)
		return
	}
	if len(bufs) > 0 && c.Size() > 2 && builtinCommutative(op) {
		switch bytes := allreducePayloadBytes(bufs); {
		case bytes >= RabenseifnerCrossoverBytes:
			c.AllreduceRabenseifner(tag, name, bufs, op)
			return
		case bytes >= TreeAllreduceCrossoverBytes:
			c.AllreduceTree(tag, name, bufs, op)
			return
		}
	}
	c.AllreduceGather(tag, name, bufs, op)
}

// builtinCommutative reports whether op is one of the predefined operators,
// the only ones the runtime knows to be commutative. ReduceOp is a func
// type, so identity — not behavior — is compared.
func builtinCommutative(op ReduceOp) bool {
	p := reflect.ValueOf(op).Pointer()
	return p == reflect.ValueOf(OpSum).Pointer() ||
		p == reflect.ValueOf(OpMin).Pointer() ||
		p == reflect.ValueOf(OpMax).Pointer()
}

// AllreduceSum is Allreduce with OpSum.
func (c *Comm) AllreduceSum(tag int, name string, bufs []buffer.F64) {
	c.Allreduce(tag, name, bufs, OpSum)
}

// AllreduceGather is the gather+broadcast Allreduce: members 1..n−1 send
// their buffers to member 0, which folds them into its own buffer in rank
// order with an ordinary compute task — deterministic in its arguments, so
// the member's selector may replicate and the injector may corrupt it like
// any computation — and the result is broadcast back down the binomial
// tree. Valid for any deterministic op, commutative or not.
func (c *Comm) AllreduceGather(tag int, name string, bufs []buffer.F64, op ReduceOp) {
	n := len(c.members)
	if !c.checkMembers("AllreduceGather", len(bufs)) {
		return
	}
	if n == 1 {
		return
	}
	c.reduceAtZero(tag, name, bufs, op)
	bb := make([]buffer.Buffer, n)
	for i, b := range bufs {
		bb[i] = b
	}
	c.BroadcastFlat(0, tag, name, bb)
}

// reduceAtZero is the gather half of AllreduceGather: members 1..n−1 send
// their buffers to member 0, which folds them into its own buffer in comm
// rank order with an ordinary compute task. Callers have validated bufs.
func (c *Comm) reduceAtZero(tag int, name string, bufs []buffer.F64, op ReduceOp) {
	n := len(c.members)
	if n == 1 {
		return
	}
	root := c.members[0]
	redArgs := []rt.Arg{rt.Inout(name, bufs[0])}
	for i := 1; i < n; i++ {
		c.members[i].commSend(fmt.Sprintf("reduce:%s>0", name),
			Match{Ctx: c.ctx, Src: c.worldID(i), Dst: root.id, Class: ClassReduce, Tag: tag},
			0, rt.In(name, bufs[i]), c.tokArg(i))
		tmp := c.w.stageF64(len(bufs[0]))
		tmpKey := fmt.Sprintf("%s:ar:%d:%d:%d", collKey, c.ctx, tag, i)
		root.commRecv(fmt.Sprintf("reduce:%s<%d", name, i),
			Match{Ctx: c.ctx, Src: c.worldID(i), Dst: root.id, Class: ClassReduce, Tag: tag},
			0, rt.Out(tmpKey, tmp), c.tokArg(0))
		redArgs = append(redArgs, rt.In(tmpKey, tmp))
	}
	root.rt.Submit("allreduce", func(ctx *rt.Ctx) {
		dst := ctx.F64(0)
		for a := 1; a < ctx.NArgs(); a++ {
			op(dst, ctx.F64(a))
		}
	}, redArgs...)
}

// AllreduceTree is the recursive-halving/doubling Allreduce for long
// vectors. Members beyond the largest power of two p ≤ n first fold their
// vectors into members 0..n−p−1 (pre phase); members 0..p−1 then run
// ⌈log2 p⌉ doubling rounds — in round k member i exchanges its full vector
// with member i xor 2^k and both fold the incoming copy — and finally the
// folded result is shipped back to the extra members (post phase). Every
// fold is an ordinary compute task (replicable, corruptible); the exchanges
// are comm tasks chained through the user's region, so round k's send reads
// the vector round k−1's fold wrote and the whole cascade is ordered by the
// dataflow tracker.
//
// Because members fold in different orders, op must be commutative for all
// members to converge on bitwise-identical results (IEEE float addition,
// min and max are). Message count: p·log2(p) + 2(n−p) full vectors.
func (c *Comm) AllreduceTree(tag int, name string, bufs []buffer.F64, op ReduceOp) {
	n := len(c.members)
	if !c.checkMembers("AllreduceTree", len(bufs)) {
		return
	}
	if n == 1 {
		return
	}
	p := 1
	for p*2 <= n {
		p *= 2
	}
	key := func(kind string, k int) string {
		return fmt.Sprintf("%s:tree:%d:%d:%s%d", collKey, c.ctx, tag, kind, k)
	}
	fold := func(i int, tmpKey string, tmp buffer.F64) {
		c.members[i].rt.Submit("treered", func(ctx *rt.Ctx) {
			op(ctx.F64(0), ctx.F64(1))
		}, rt.Inout(name, bufs[i]), rt.In(tmpKey, tmp))
	}
	// Pre phase: extra member p+j folds into member j.
	for j := 0; j+p < n; j++ {
		e := p + j
		m := Match{Ctx: c.ctx, Src: c.worldID(e), Dst: c.worldID(j), Class: ClassTree, Tag: tag, Sub: subTreePre}
		c.members[e].commSend(fmt.Sprintf("treepre:%s>%d", name, j), m,
			0, rt.In(name, bufs[e]), c.tokArg(e))
		tmp := c.w.stageF64(len(bufs[j]))
		tk := key("pre", j)
		c.members[j].commRecv(fmt.Sprintf("treepre:%s<%d", name, e), m,
			0, rt.Out(tk, tmp), c.tokArg(j))
		fold(j, tk, tmp)
	}
	// Doubling rounds among members 0..p-1.
	for k, step := 0, 1; step < p; k, step = k+1, step*2 {
		for i := 0; i < p; i++ {
			partner := i ^ step
			c.members[i].commSend(fmt.Sprintf("tree:%s>%d/%d", name, partner, k),
				Match{Ctx: c.ctx, Src: c.worldID(i), Dst: c.worldID(partner), Class: ClassTree, Tag: tag, Sub: k},
				0, rt.In(name, bufs[i]), c.tokArg(i))
			tmp := c.w.stageF64(len(bufs[i]))
			tk := key("rnd", k)
			c.members[i].commRecv(fmt.Sprintf("tree:%s<%d/%d", name, partner, k),
				Match{Ctx: c.ctx, Src: c.worldID(partner), Dst: c.worldID(i), Class: ClassTree, Tag: tag, Sub: k},
				0, rt.Out(tk, tmp), c.tokArg(i))
			fold(i, tk, tmp)
		}
	}
	// Post phase: member j ships the folded result back to extra p+j.
	for j := 0; j+p < n; j++ {
		e := p + j
		m := Match{Ctx: c.ctx, Src: c.worldID(j), Dst: c.worldID(e), Class: ClassTree, Tag: tag, Sub: subTreePost}
		c.members[j].commSend(fmt.Sprintf("treepost:%s>%d", name, e), m,
			0, rt.In(name, bufs[j]), c.tokArg(j))
		c.members[e].commRecv(fmt.Sprintf("treepost:%s<%d", name, j), m,
			0, rt.Out(name, bufs[e]), c.tokArg(e))
	}
}

// ReduceScatter reduces every member's n·L-element input vector for region
// in (n blocks of L elements, block j destined for comm rank j) and leaves
// member i holding the fully reduced block i in outs[i] under region out —
// the ring algorithm: block k's partial starts at member k+1 with just that
// member's contribution and travels the ring for n−1 steps, each holder
// folding in its own contribution, arriving complete at member k. n(n−1)
// messages of L elements, all over ring links; every fold is an ordinary
// compute task (replicable, corruptible). Contributions accumulate in ring
// order — member k+1 first, then k+2, …, member k last — which a serial
// reference must replay for bitwise comparison. bufs[i] must have n·L
// elements and every outs[i] L elements, with L = len(outs[0]); a mismatch
// records a World error and submits nothing.
func (c *Comm) ReduceScatter(tag int, in, out string, bufs, outs []buffer.F64, op ReduceOp) {
	n := len(c.members)
	if !c.checkMembers("ReduceScatter", len(bufs)) || !c.checkMembers("ReduceScatter", len(outs)) {
		return
	}
	L := len(outs[0])
	for i := 0; i < n; i++ {
		if len(outs[i]) != L || len(bufs[i]) != n*L {
			c.w.addErr(fmt.Errorf("dist: ReduceScatter member %d: input %d, output %d elements, want %d and %d: %w",
				i, len(bufs[i]), len(outs[i]), n*L, L, ErrCollectiveArgs))
			return
		}
	}
	if n == 1 {
		c.members[0].rt.Submit("rsout", func(ctx *rt.Ctx) {
			copy(ctx.F64(1), ctx.F64(0))
		}, rt.In(in, bufs[0]), rt.Out(out, outs[0]))
		return
	}
	for i := 0; i < n; i++ {
		r := c.members[i]
		acc := c.w.stageF64(L)
		aKey := fmt.Sprintf("%s:rs:%d:%d:acc", collKey, c.ctx, tag)
		b0 := (i - 1 + n) % n
		r.rt.Submit("rsinit", func(ctx *rt.Ctx) {
			copy(ctx.F64(1), ctx.F64(0)[b0*L:(b0+1)*L])
		}, rt.In(in, bufs[i]), rt.Out(aKey, acc))
		for s := 0; s < n-1; s++ {
			right, left := (i+1)%n, (i-1+n)%n
			r.commSend(fmt.Sprintf("rs:%s>%d/%d", in, right, s),
				Match{Ctx: c.ctx, Src: r.id, Dst: c.worldID(right), Class: ClassRedScat, Tag: tag, Sub: s},
				0, rt.In(aKey, acc), c.tokArg(i))
			tmp := c.w.stageF64(L)
			tKey := fmt.Sprintf("%s:rs:%d:%d:t%d", collKey, c.ctx, tag, s)
			r.commRecv(fmt.Sprintf("rs:%s<%d/%d", in, left, s),
				Match{Ctx: c.ctx, Src: c.worldID(left), Dst: r.id, Class: ClassRedScat, Tag: tag, Sub: s},
				0, rt.Out(tKey, tmp), c.tokArg(i))
			// The arriving partial holds blk's contributions in ring order;
			// fold in this member's own, continuing the order.
			blk := ((i-s-2)%n + n) % n
			dst := rt.Out(aKey, acc)
			if s == n-2 {
				dst = rt.Out(out, outs[i]) // blk == i: the block this member keeps
			}
			r.rt.Submit("rsred", func(ctx *rt.Ctx) {
				d := ctx.F64(2)
				copy(d, ctx.F64(1))
				op(d, ctx.F64(0)[blk*L:(blk+1)*L])
			}, rt.In(in, bufs[i]), rt.In(tKey, tmp), dst)
		}
	}
}
