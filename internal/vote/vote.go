// Package vote implements the output comparison and majority-vote machinery
// of the replication design (paper §III, Figure 2): the outputs of a task
// and its replica are compared at their synchronization point; inequality
// signals an SDC; after a third execution, "all three results are compared
// and the majority vote is selected as the task's result". Recovery
// iterates that vote under an attempt budget and is shared by the real
// runtime and the cluster simulator.
//
// The comparator is pluggable, as the paper notes ("other comparators such
// as residue error checkers can easily be deployed in the runtime"): Bitwise
// compares full contents, Checksum compares 64-bit fingerprints (cheaper,
// with a 2^-64 aliasing risk), mirroring the residue-checker trade-off.
package vote

import (
	"errors"

	"appfit/internal/buffer"
)

// Comparator decides whether two result sets (the output buffers of two
// executions of the same task) agree.
type Comparator interface {
	// Name identifies the comparator in traces and stats.
	Name() string
	// Equal reports agreement of two same-shape output sets.
	Equal(a, b []buffer.Buffer) bool
}

// Bitwise is the paper's default comparator: full bitwise equality of every
// output argument.
type Bitwise struct{}

// Name implements Comparator.
func (Bitwise) Name() string { return "bitwise" }

// Equal implements Comparator.
func (Bitwise) Equal(a, b []buffer.Buffer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].EqualTo(b[i]) {
			return false
		}
	}
	return true
}

// Checksum compares 64-bit FNV fingerprints of the outputs. It reads both
// sets fully but avoids element-wise short-circuit divergence costs and
// models residue-style checkers.
type Checksum struct{}

// Name implements Comparator.
func (Checksum) Name() string { return "checksum" }

// Equal implements Comparator.
func (Checksum) Equal(a, b []buffer.Buffer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Checksum() != b[i].Checksum() {
			return false
		}
	}
	return true
}

// ErrNoMajority is returned when a replicated task's attempt budget
// (MaxAttempts) runs out before two executions agree — whether the
// survivors disagreed or every attempt crashed.
type ErrNoMajority struct{}

func (ErrNoMajority) Error() string { return "vote: no majority: attempt budget exhausted" }

// IsNoMajority reports whether err is a no-majority failure.
func IsNoMajority(err error) bool {
	var e ErrNoMajority
	return errors.As(err, &e)
}

// Outcome is how one execution attempt ended, as classified by the engine
// (rt compares bytes; the simulator models outcomes).
type Outcome uint8

const (
	Crashed   Outcome = iota // a DUE: no result
	Disagreed                // a result matching no earlier survivor's
	Agreed                   // a result equal to an earlier survivor's
)

// Action is the recovery policy's verdict.
type Action uint8

const (
	Reexecute Action = iota // restore from the checkpoint, run one more attempt
	Adopt                   // two executions agree: their result stands
	Fail                    // the budget is spent without an agreeing pair
)

// Counts are the counters one Decide adds; each field is 0 or 1.
type Counts struct {
	SDCDetected, SDCRecovered, DUERecovered, Reexecutions, VoteFailures int
}

// Recovery is the Figure-2 recovery policy of one replicated task: the one
// place that decides adopt, re-execute or fail, for both the runtime and
// the simulator. Observe the primary and replica, then Decide; while the
// verdict is Reexecute, Observe one more attempt and Decide again. A lone
// survivor is never adopted — a corrupted one would pass unchecked — and
// the first disagreement counts one SDC for the task, however many rounds
// it takes to settle. A Recovery is a plain value with no allocation.
type Recovery struct {
	MaxAttempts int // executions allowed, primary and replica included

	attempts int
	survived bool // some attempt produced a result
	agreed   bool // an attempt agreed with an earlier survivor
	crashed  bool // some attempt crashed
	mismatch bool // a survivor disagreed with an earlier one: SDC
	reported bool // the mismatch has been counted
}

// Observe records the next attempt's outcome. Agreed with no earlier
// survivor counts as a lone result.
func (r *Recovery) Observe(o Outcome) {
	r.attempts++
	switch {
	case o == Crashed:
		r.crashed = true
		return
	case o == Agreed && r.survived:
		r.agreed = true
	case r.survived:
		r.mismatch = true
	}
	r.survived = true
}

// Attempts returns the attempts observed so far: the next one's index.
func (r *Recovery) Attempts() int { return r.attempts }

// Decide returns the verdict on the attempts observed so far.
func (r *Recovery) Decide() (Action, Counts) {
	var c Counts
	if r.mismatch && !r.reported {
		r.reported = true
		c.SDCDetected = 1
	}
	switch {
	case r.agreed:
		if r.mismatch {
			c.SDCRecovered = 1
		}
		if r.crashed {
			c.DUERecovered = 1
		}
		return Adopt, c
	case r.attempts >= r.MaxAttempts:
		c.VoteFailures = 1
		return Fail, c
	}
	c.Reexecutions = 1
	return Reexecute, c
}

// Panel runs n independent comparator passes (the paper's "multiple voters",
// §IV-A: voters are assumed safe because their footprint is small, but
// reliability can be increased by using multiple voters). A Panel of n agrees
// only if every pass agrees; with a deterministic comparator the passes are
// identical, so Panel models the redundancy cost, which the overhead
// experiments account for.
type Panel struct {
	Cmp Comparator
	N   int
}

// Name implements Comparator.
func (p Panel) Name() string { return p.Cmp.Name() + "-panel" }

// Equal implements Comparator.
func (p Panel) Equal(a, b []buffer.Buffer) bool {
	n := p.N
	if n < 1 {
		n = 1
	}
	agree := true
	for i := 0; i < n; i++ {
		if !p.Cmp.Equal(a, b) {
			agree = false
		}
	}
	return agree
}
