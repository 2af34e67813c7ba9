package vote

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"appfit/internal/buffer"
	"appfit/internal/xrand"
)

func mk(vals ...float64) []buffer.Buffer {
	b := buffer.F64(vals)
	return []buffer.Buffer{b}
}

func mkRand(seed uint64, n int) []buffer.Buffer {
	r := xrand.New(seed)
	b := buffer.NewF64(n)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	return []buffer.Buffer{b}
}

func clone(bs []buffer.Buffer) []buffer.Buffer {
	out := make([]buffer.Buffer, len(bs))
	for i, b := range bs {
		out[i] = b.Clone()
	}
	return out
}

func TestBitwiseEqual(t *testing.T) {
	a := mkRand(1, 128)
	b := clone(a)
	if !(Bitwise{}).Equal(a, b) {
		t.Fatal("identical outputs must compare equal")
	}
	b[0].FlipBit(1000)
	if (Bitwise{}).Equal(a, b) {
		t.Fatal("single-bit flip must be detected")
	}
}

func TestBitwiseShapeMismatch(t *testing.T) {
	if (Bitwise{}).Equal(mk(1, 2), append(mk(1, 2), buffer.NewF64(1))) {
		t.Fatal("different arities must not compare equal")
	}
}

func TestChecksumDetectsFlip(t *testing.T) {
	a := mkRand(2, 256)
	b := clone(a)
	if !(Checksum{}).Equal(a, b) {
		t.Fatal("identical outputs must compare equal")
	}
	b[0].FlipBit(7)
	if (Checksum{}).Equal(a, b) {
		t.Fatal("checksum comparator missed a flip")
	}
	if (Checksum{}).Equal(a, a[:0]) {
		t.Fatal("different arities must not compare equal")
	}
}

func TestComparatorNames(t *testing.T) {
	if (Bitwise{}).Name() != "bitwise" || (Checksum{}).Name() != "checksum" {
		t.Fatal("bad names")
	}
	if (Panel{Cmp: Bitwise{}, N: 3}).Name() != "bitwise-panel" {
		t.Fatal("bad panel name")
	}
}

// settle drives a Recovery the way the engines do: each result is compared
// with cmp against every earlier one, the first two are decided together
// as the primary/replica pair, and the rest are re-executions observed one
// at a time. A nil result is a crashed attempt. It returns the verdict and
// the index of the adopted result — the earlier member of the agreeing
// pair — or -1.
func settle(cmp Comparator, results ...[]buffer.Buffer) (Action, int) {
	rec := Recovery{MaxAttempts: len(results)}
	adopted := -1
	observe := func(i int) {
		if results[i] == nil {
			rec.Observe(Crashed)
			return
		}
		o := Disagreed
		for j := 0; j < i; j++ {
			if results[j] != nil && cmp.Equal(results[j], results[i]) {
				o, adopted = Agreed, j
				break
			}
		}
		rec.Observe(o)
	}
	observe(0)
	observe(1)
	for i := 2; ; i++ {
		if act, _ := rec.Decide(); act != Reexecute {
			return act, adopted
		}
		observe(i)
	}
}

func TestMajorityAllAgree(t *testing.T) {
	a := mkRand(3, 64)
	act, idx := settle(Bitwise{}, a, clone(a), clone(a))
	if act != Adopt || idx != 0 {
		t.Fatalf("act=%d idx=%d", act, idx)
	}
}

func TestMajorityPrimaryCorrupted(t *testing.T) {
	good := mkRand(4, 64)
	bad := clone(good)
	bad[0].FlipBit(3)
	// r0 corrupted, r1 and r2 agree → index 1.
	act, idx := settle(Bitwise{}, bad, clone(good), clone(good))
	if act != Adopt || idx != 1 {
		t.Fatalf("act=%d idx=%d", act, idx)
	}
}

func TestMajorityReplicaCorrupted(t *testing.T) {
	good := mkRand(5, 64)
	bad := clone(good)
	bad[0].FlipBit(9)
	// r1 corrupted, r0 and r2 agree → index 0.
	act, idx := settle(Bitwise{}, clone(good), bad, clone(good))
	if act != Adopt || idx != 0 {
		t.Fatalf("act=%d idx=%d", act, idx)
	}
}

func TestMajorityReexecCorrupted(t *testing.T) {
	good := mkRand(6, 64)
	bad := clone(good)
	bad[0].FlipBit(100)
	// r0 and r1 agree at the first comparison: the corrupted r2 is never
	// needed.
	act, idx := settle(Bitwise{}, clone(good), clone(good), bad)
	if act != Adopt || idx != 0 {
		t.Fatalf("act=%d idx=%d", act, idx)
	}
	// A crashed primary leaves r1 alone; the corrupted r2 disagrees with
	// it, so no pair forms within three attempts.
	if act, idx := settle(Bitwise{}, nil, clone(good), bad); act != Fail || idx != -1 {
		t.Fatalf("crash+corrupt: act=%d idx=%d", act, idx)
	}
}

func TestMajorityNoMajority(t *testing.T) {
	a, b, c := mkRand(7, 64), mkRand(7, 64), mkRand(7, 64)
	b[0].FlipBit(1)
	c[0].FlipBit(2)
	act, idx := settle(Bitwise{}, a, b, c)
	if act != Fail || idx != -1 {
		t.Fatalf("expected no-majority, got act=%d idx=%d", act, idx)
	}
	var err error = ErrNoMajority{}
	if !IsNoMajority(fmt.Errorf("task 1: %w", err)) {
		t.Fatal("IsNoMajority must recognize the wrapped error")
	}
	if !strings.Contains(err.Error(), "majority") {
		t.Fatalf("message %q must name the failed majority", err)
	}
	if IsNoMajority(nil) {
		t.Fatal("nil is not a no-majority error")
	}
}

// TestRecoveryCounts pins the counters of the canonical Figure-2 paths,
// including the two the engines used to disagree on: an SDC is counted
// once per task however many rounds it takes, and budget exhaustion is a
// vote failure even when every attempt crashed.
func TestRecoveryCounts(t *testing.T) {
	const (
		C = Crashed
		D = Disagreed
		A = Agreed
	)
	cases := []struct {
		name string
		max  int
		outs []Outcome
		act  Action
		want Counts
	}{
		{"clean", 8, []Outcome{D, A}, Adopt, Counts{}},
		{"sdc-pair", 8, []Outcome{D, D, A}, Adopt, Counts{SDCDetected: 1, SDCRecovered: 1, Reexecutions: 1}},
		{"sdc-twice", 8, []Outcome{D, D, D, A}, Adopt, Counts{SDCDetected: 1, SDCRecovered: 1, Reexecutions: 2}},
		{"due-primary", 8, []Outcome{C, D, A}, Adopt, Counts{DUERecovered: 1, Reexecutions: 1}},
		{"due-due", 8, []Outcome{C, C, D, A}, Adopt, Counts{DUERecovered: 1, Reexecutions: 2}},
		{"due-then-sdc", 8, []Outcome{C, D, D, A}, Adopt,
			Counts{SDCDetected: 1, SDCRecovered: 1, DUERecovered: 1, Reexecutions: 2}},
		{"sdc-exhausted", 3, []Outcome{D, D, D}, Fail, Counts{SDCDetected: 1, Reexecutions: 1, VoteFailures: 1}},
		{"crash-exhausted", 5, []Outcome{C, C, C, C, C}, Fail, Counts{Reexecutions: 3, VoteFailures: 1}},
		{"lone-survivor-exhausted", 4, []Outcome{C, D, C, C}, Fail, Counts{Reexecutions: 2, VoteFailures: 1}},
	}
	for _, tc := range cases {
		rec := Recovery{MaxAttempts: tc.max}
		var got Counts
		var act Action
		for i, o := range tc.outs {
			rec.Observe(o)
			if i == 0 {
				continue
			}
			var c Counts
			act, c = rec.Decide()
			got = addCounts(got, c)
			if act != Reexecute {
				if i != len(tc.outs)-1 {
					t.Fatalf("%s: settled after %d of %d outcomes", tc.name, i+1, len(tc.outs))
				}
				break
			}
		}
		if act != tc.act || got != tc.want {
			t.Fatalf("%s: act=%d counts=%+v, want act=%d counts=%+v", tc.name, act, got, tc.act, tc.want)
		}
	}
}

func addCounts(a, b Counts) Counts {
	a.SDCDetected += b.SDCDetected
	a.SDCRecovered += b.SDCRecovered
	a.DUERecovered += b.DUERecovered
	a.Reexecutions += b.Reexecutions
	a.VoteFailures += b.VoteFailures
	return a
}

// TestPropertyRecoverySettles runs Recovery over random outcome sequences
// and budgets: it never adopts without an agreeing pair, never runs past
// MaxAttempts, always ends in exactly one of Adopt or Fail, and its
// counters stay per-task.
func TestPropertyRecoverySettles(t *testing.T) {
	f := func(raw []byte, budget uint8) bool {
		max := 2 + int(budget%9)
		rec := Recovery{MaxAttempts: max}
		var total Counts
		pair := false // an Agreed outcome followed an earlier survivor
		survived := false
		terminal := 0
		var last Action
		for i := 0; i < max; i++ {
			o := Disagreed
			if i < len(raw) {
				o = Outcome(raw[i] % 3)
			}
			if o == Agreed && survived {
				pair = true
			}
			survived = survived || o != Crashed
			rec.Observe(o)
			if i == 0 {
				continue
			}
			act, c := rec.Decide()
			total = addCounts(total, c)
			last = act
			if act == Adopt && !pair {
				return false
			}
			if act != Reexecute {
				terminal++
				break
			}
		}
		if terminal != 1 || rec.Attempts() > max {
			return false
		}
		if (last == Fail) != (total.VoteFailures == 1) || total.VoteFailures > 1 {
			return false
		}
		if total.SDCDetected > 1 || total.SDCRecovered > total.SDCDetected || total.DUERecovered > 1 {
			return false
		}
		return total.Reexecutions == rec.Attempts()-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPanel(t *testing.T) {
	a := mkRand(8, 32)
	b := clone(a)
	p := Panel{Cmp: Bitwise{}, N: 3}
	if !p.Equal(a, b) {
		t.Fatal("panel must agree on equal outputs")
	}
	b[0].FlipBit(0)
	if p.Equal(a, b) {
		t.Fatal("panel must detect mismatch")
	}
	// N < 1 clamps to one pass.
	if !(Panel{Cmp: Bitwise{}}).Equal(a, clone(a)) {
		t.Fatal("zero-N panel must still compare once")
	}
}

func BenchmarkBitwise4K(b *testing.B) {
	a := mkRand(1, 4096)
	c := clone(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Bitwise{}.Equal(a, c)
	}
}

func BenchmarkChecksum4K(b *testing.B) {
	a := mkRand(1, 4096)
	c := clone(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Checksum{}.Equal(a, c)
	}
}
