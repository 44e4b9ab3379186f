package matrix

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"optrr/internal/randx"
)

func mustFromRows(t *testing.T, rows [][]float64) *Dense {
	t.Helper()
	m, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, c := range []struct{ r, c int }{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c.r, c.c)
				}
			}()
			New(c.r, c.c)
		}()
	}
}

func TestFromRowsRejectsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
	if _, err := FromRows(nil); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestRowColCopies(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Row returned a view, want a copy")
	}
	c := m.Col(1)
	c[0] = 99
	if m.At(0, 1) != 2 {
		t.Fatal("Col returned a view, want a copy")
	}
	if got := m.Col(0); got[0] != 1 || got[1] != 3 {
		t.Fatalf("Col(0) = %v, want [1 3]", got)
	}
}

func TestSetCol(t *testing.T) {
	m := New(2, 2)
	m.SetCol(1, []float64{5, 6})
	if m.At(0, 1) != 5 || m.At(1, 1) != 6 {
		t.Fatalf("SetCol failed: %v", m)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestTranspose(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("T shape = %dx%d, want 3x2", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	b := mustFromRows(t, [][]float64{{5, 6}, {7, 8}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := mustFromRows(t, [][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 0) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulShapeError(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	if _, err := a.Mul(b); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestMulVecKnown(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	got, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("MulVec = %v, want [3 7]", got)
	}
	if _, err := a.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestIdentityMulIsNoOp(t *testing.T) {
	r := randx.New(1)
	a := randomMatrix(r, 5, 5)
	i5 := Identity(5)
	left, _ := i5.Mul(a)
	right, _ := a.Mul(i5)
	if !left.Equal(a, 1e-12) || !right.Equal(a, 1e-12) {
		t.Fatal("identity multiplication changed the matrix")
	}
}

func TestAddSubScale(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	b := mustFromRows(t, [][]float64{{4, 3}, {2, 1}})
	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustFromRows(t, [][]float64{{5, 5}, {5, 5}}); !sum.Equal(want, 0) {
		t.Fatalf("Add = %v", sum)
	}
	diff, err := sum.Sub(b)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Equal(a, 0) {
		t.Fatalf("Sub = %v, want %v", diff, a)
	}
	if got := a.Clone().Scale(2).At(1, 1); got != 8 {
		t.Fatalf("Scale: got %v, want 8", got)
	}
	if _, err := a.Add(New(3, 3)); !errors.Is(err, ErrShape) {
		t.Fatal("Add shape mismatch not reported")
	}
	if _, err := a.Sub(New(3, 3)); !errors.Is(err, ErrShape) {
		t.Fatal("Sub shape mismatch not reported")
	}
}

func TestInverseKnown(t *testing.T) {
	a := mustFromRows(t, [][]float64{{4, 7}, {2, 6}})
	inv, err := a.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	want := mustFromRows(t, [][]float64{{0.6, -0.7}, {-0.2, 0.4}})
	if !inv.Equal(want, 1e-12) {
		t.Fatalf("Inverse = %v, want %v", inv, want)
	}
}

func TestInverseSingular(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {2, 4}})
	if _, err := a.Inverse(); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestInverseNonSquare(t *testing.T) {
	if _, err := New(2, 3).Inverse(); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestDetKnown(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	if got := a.Det(); math.Abs(got-(-2)) > 1e-12 {
		t.Fatalf("Det = %v, want -2", got)
	}
	if got := Identity(7).Det(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Det(I) = %v, want 1", got)
	}
	singular := mustFromRows(t, [][]float64{{1, 1}, {1, 1}})
	if got := singular.Det(); got != 0 {
		t.Fatalf("Det(singular) = %v, want 0", got)
	}
}

func TestDetPermutationSign(t *testing.T) {
	// A pure row swap of the identity has determinant -1; this exercises the
	// pivot-sign bookkeeping.
	a := mustFromRows(t, [][]float64{{0, 1}, {1, 0}})
	if got := a.Det(); math.Abs(got-(-1)) > 1e-12 {
		t.Fatalf("Det = %v, want -1", got)
	}
}

func TestSolveKnown(t *testing.T) {
	a := mustFromRows(t, [][]float64{{2, 1}, {1, 3}})
	x, err := a.Solve([]float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("Solve = %v, want [1 3]", x)
	}
}

func TestSolveBadRHS(t *testing.T) {
	a := Identity(3)
	if _, err := a.Solve([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestNorm1(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, -2}, {-3, 4}})
	if got := a.Norm1(); got != 6 {
		t.Fatalf("Norm1 = %v, want 6", got)
	}
}

func TestMaxAbs(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, -7}, {3, 4}})
	if got := a.MaxAbs(); got != 7 {
		t.Fatalf("MaxAbs = %v, want 7", got)
	}
}

func TestConditionEstimate(t *testing.T) {
	if got := Identity(4).ConditionEstimate(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("cond(I) = %v, want 1", got)
	}
	singular := mustFromRows(t, [][]float64{{1, 1}, {1, 1}})
	if got := singular.ConditionEstimate(); !math.IsInf(got, 1) {
		t.Fatalf("cond(singular) = %v, want +Inf", got)
	}
}

func TestStringFormat(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	want := "[1 2]\n[3 4]"
	if got := a.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// randomMatrix builds a well-conditioned-ish random matrix: random entries
// with a boosted diagonal so inversion tests are numerically stable.
func randomMatrix(r *randx.Source, rows, cols int) *Dense {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := r.Float64()*2 - 1
			if i == j {
				v += float64(cols)
			}
			m.Set(i, j, v)
		}
	}
	return m
}

func TestPropertyInverseRoundTrip(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8) bool {
		n := int(sizeRaw%8) + 1
		r := randx.New(seed)
		a := randomMatrix(r, n, n)
		inv, err := a.Inverse()
		if err != nil {
			return false // diagonally dominant matrices must invert
		}
		prod, err := a.Mul(inv)
		if err != nil {
			return false
		}
		diff, err := prod.Sub(Identity(n))
		if err != nil {
			return false
		}
		return diff.MaxAbs() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySolveMatchesInverse(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8) bool {
		n := int(sizeRaw%8) + 1
		r := randx.New(seed)
		a := randomMatrix(r, n, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Float64()*10 - 5
		}
		x1, err := a.Solve(b)
		if err != nil {
			return false
		}
		inv, err := a.Inverse()
		if err != nil {
			return false
		}
		x2, err := inv.MulVec(b)
		if err != nil {
			return false
		}
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTransposeInvolution(t *testing.T) {
	f := func(seed uint64, rRaw, cRaw uint8) bool {
		rows := int(rRaw%6) + 1
		cols := int(cRaw%6) + 1
		r := randx.New(seed)
		a := randomMatrix(r, rows, cols)
		return a.T().T().Equal(a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMulAssociative(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8) bool {
		n := int(sizeRaw%5) + 1
		r := randx.New(seed)
		a := randomMatrix(r, n, n)
		b := randomMatrix(r, n, n)
		c := randomMatrix(r, n, n)
		ab, _ := a.Mul(b)
		abc1, _ := ab.Mul(c)
		bc, _ := b.Mul(c)
		abc2, _ := a.Mul(bc)
		return abc1.Equal(abc2, 1e-8*abc1.MaxAbs()+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDetProductRule(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8) bool {
		n := int(sizeRaw%5) + 1
		r := randx.New(seed)
		a := randomMatrix(r, n, n)
		b := randomMatrix(r, n, n)
		ab, _ := a.Mul(b)
		lhs := ab.Det()
		rhs := a.Det() * b.Det()
		scale := math.Max(math.Abs(lhs), 1)
		return math.Abs(lhs-rhs) < 1e-8*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInverse10(b *testing.B) {
	r := randx.New(1)
	a := randomMatrix(r, 10, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Inverse(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolve10(b *testing.B) {
	r := randx.New(1)
	a := randomMatrix(r, 10, 10)
	rhs := make([]float64, 10)
	for i := range rhs {
		rhs[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Solve(rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMul10(b *testing.B) {
	r := randx.New(1)
	x := randomMatrix(r, 10, 10)
	y := randomMatrix(r, 10, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.Mul(y); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLUReuseAcrossMixedSizes pins the workspace contract of (*LU).Factorize
// on the mixed factor sizes a Kronecker inversion cycles through: a reused
// workspace yields bit-for-bit the inverse and determinant of a fresh one,
// and once it has seen the largest size it never allocates again.
func TestLUReuseAcrossMixedSizes(t *testing.T) {
	r := randx.New(8)
	ms := []*Dense{randomMatrix(r, 6, 6), randomMatrix(r, 3, 3), randomMatrix(r, 5, 5), randomMatrix(r, 1, 1), randomMatrix(r, 6, 6)}
	f := NewLU()
	for _, a := range ms {
		if err := f.Factorize(a); err != nil {
			t.Fatal(err)
		}
		fresh, err := Factorize(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range want.data {
			if math.Float64bits(got.data[i]) != math.Float64bits(v) {
				t.Fatalf("%dx%d: reused inverse entry %d = %v, fresh %v", a.rows, a.rows, i, got.data[i], v)
			}
		}
		if math.Float64bits(f.Det()) != math.Float64bits(fresh.Det()) {
			t.Fatalf("%dx%d: reused det %v, fresh %v", a.rows, a.rows, f.Det(), fresh.Det())
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, a := range ms {
			if err := f.Factorize(a); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Factorize over mixed sizes allocates %v times per pass, want 0", allocs)
	}
}
