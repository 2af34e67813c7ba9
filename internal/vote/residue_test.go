package vote

import (
	"testing"

	"appfit/internal/buffer"
)

func TestResidueDetectsFlips(t *testing.T) {
	a := mkRand(21, 256)
	b := clone(a)
	if !(Residue{}).Equal(a, b) {
		t.Fatal("identical outputs must agree")
	}
	misses := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		bit := int64(i * 31 % (256 * 64))
		b[0].FlipBit(bit)
		if (Residue{}).Equal(a, b) {
			misses++
		}
		b[0].FlipBit(bit)
	}
	if misses > 0 {
		t.Fatalf("residue checker missed %d/%d single-bit flips", misses, trials)
	}
}

func TestResidueShapeMismatch(t *testing.T) {
	if (Residue{}).Equal(mk(1), append(mk(1), buffer.NewF64(1))) {
		t.Fatal("arity mismatch must fail")
	}
	if (Residue{}).Name() != "residue" {
		t.Fatal("name")
	}
}

func TestResidueInMajorityVote(t *testing.T) {
	good := mkRand(22, 128)
	bad := clone(good)
	bad[0].FlipBit(77)
	act, idx := settle(Residue{}, bad, clone(good), clone(good))
	if act != Adopt || idx != 1 {
		t.Fatalf("act=%d idx=%d", act, idx)
	}
}

func TestToleranceAcceptsSmallDrift(t *testing.T) {
	a := []buffer.Buffer{buffer.F64{1.0, 2.0}}
	b := []buffer.Buffer{buffer.F64{1.0 + 1e-12, 2.0}}
	cmp := Tolerance{Rel: 1e-9}
	if !cmp.Equal(a, b) {
		t.Fatal("drift below bound must pass")
	}
	c := []buffer.Buffer{buffer.F64{1.1, 2.0}}
	if cmp.Equal(a, c) {
		t.Fatal("drift above bound must fail")
	}
	if cmp.Name() != "tolerance" {
		t.Fatal("name")
	}
}

func TestToleranceNonF64FallsBackBitwise(t *testing.T) {
	a := []buffer.Buffer{buffer.I64{5}}
	b := []buffer.Buffer{buffer.I64{5}}
	cmp := Tolerance{Rel: 1}
	if !cmp.Equal(a, b) {
		t.Fatal("equal ints must pass")
	}
	b[0].(buffer.I64)[0] = 6
	if cmp.Equal(a, b) {
		t.Fatal("differing ints must fail bitwise fallback")
	}
	// Length mismatch within F64.
	if cmp.Equal([]buffer.Buffer{buffer.NewF64(2)}, []buffer.Buffer{buffer.NewF64(3)}) {
		t.Fatal("length mismatch must fail")
	}
	if cmp.Equal(a, a[:0]) {
		t.Fatal("arity mismatch must fail")
	}
}

func BenchmarkResidue4K(b *testing.B) {
	a := mkRand(1, 4096)
	c := clone(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Residue{}.Equal(a, c)
	}
}
