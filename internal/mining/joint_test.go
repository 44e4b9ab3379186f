package mining

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"optrr/internal/randx"
	"optrr/internal/rr"
)

func mustWarner(t testing.TB, n int, p float64) *rr.Matrix {
	t.Helper()
	m, err := rr.Warner(n, p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sampleJoint draws records from a known joint distribution over the given
// sizes.
func sampleJoint(t testing.TB, joint []float64, sizes []int, n int, r *randx.Source) [][]int {
	t.Helper()
	alias, err := randx.NewAlias(joint)
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*rr.Matrix, len(sizes))
	for d, s := range sizes {
		ms[d] = rr.Identity(s)
	}
	mr, err := NewMultiRR(ms...)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]int, n)
	for i := range out {
		out[i] = mr.Unindex(alias.Draw(r))
	}
	return out
}

func TestNewMultiRRValidates(t *testing.T) {
	if _, err := NewMultiRR(); !errors.Is(err, ErrSchema) {
		t.Fatalf("empty: err = %v", err)
	}
	if _, err := NewMultiRR(nil); !errors.Is(err, ErrSchema) {
		t.Fatalf("nil matrix: err = %v", err)
	}
	mr, err := NewMultiRR(mustWarner(t, 3, 0.8), mustWarner(t, 4, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	if mr.Attributes() != 2 || mr.JointSize() != 12 {
		t.Fatalf("attributes = %d, joint = %d", mr.Attributes(), mr.JointSize())
	}
	if s := mr.Sizes(); s[0] != 3 || s[1] != 4 {
		t.Fatalf("sizes = %v", s)
	}
}

func TestIndexUnindexRoundTrip(t *testing.T) {
	mr, err := NewMultiRR(mustWarner(t, 3, 0.8), mustWarner(t, 4, 0.7), mustWarner(t, 2, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < mr.JointSize(); idx++ {
		rec := mr.Unindex(idx)
		back, err := mr.Index(rec)
		if err != nil {
			t.Fatal(err)
		}
		if back != idx {
			t.Fatalf("round trip failed: %d -> %v -> %d", idx, rec, back)
		}
	}
	if _, err := mr.Index([]int{0, 0}); !errors.Is(err, ErrSchema) {
		t.Fatal("short record accepted")
	}
	if _, err := mr.Index([]int{0, 4, 0}); !errors.Is(err, ErrSchema) {
		t.Fatal("out-of-range record accepted")
	}
}

func TestDisguiseValidatesAndPreservesShape(t *testing.T) {
	mr, err := NewMultiRR(mustWarner(t, 3, 0.8), mustWarner(t, 2, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	records := [][]int{{0, 1}, {2, 0}, {1, 1}}
	out, err := mr.Disguise(records, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d records", len(out))
	}
	for _, rec := range out {
		if rec[0] < 0 || rec[0] >= 3 || rec[1] < 0 || rec[1] >= 2 {
			t.Fatalf("disguised record out of range: %v", rec)
		}
	}
	if _, err := mr.Disguise([][]int{{0, 5}}, randx.New(1)); !errors.Is(err, ErrSchema) {
		t.Fatal("bad record accepted")
	}
}

func TestEmpiricalJoint(t *testing.T) {
	mr, err := NewMultiRR(rr.Identity(2), rr.Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	joint, err := mr.EmpiricalJoint([][]int{{0, 0}, {0, 1}, {1, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.25, 0.25, 0, 0.5}
	for i := range want {
		if math.Abs(joint[i]-want[i]) > 1e-12 {
			t.Fatalf("joint = %v, want %v", joint, want)
		}
	}
	if _, err := mr.EmpiricalJoint(nil); !errors.Is(err, ErrNoData) {
		t.Fatal("empty data accepted")
	}
}

// TestEstimateJointRecoversDistribution is the core multi-dimensional RR
// claim: disguising each axis independently and inverting per axis recovers
// the original joint distribution.
func TestEstimateJointRecoversDistribution(t *testing.T) {
	r := randx.New(5)
	sizes := []int{3, 4, 2}
	// A correlated joint: mass concentrated where attributes agree.
	joint := make([]float64, 24)
	var sum float64
	for i := range joint {
		joint[i] = r.Float64()
		sum += joint[i]
	}
	for i := range joint {
		joint[i] /= sum
	}
	originals := sampleJoint(t, joint, sizes, 120000, r)

	mr, err := NewMultiRR(mustWarner(t, 3, 0.8), mustWarner(t, 4, 0.75), mustWarner(t, 2, 0.85))
	if err != nil {
		t.Fatal(err)
	}
	disguised, err := mr.Disguise(originals, r)
	if err != nil {
		t.Fatal(err)
	}
	est, err := mr.EstimateJoint(disguised)
	if err != nil {
		t.Fatal(err)
	}
	for i := range joint {
		if math.Abs(est[i]-joint[i]) > 0.02 {
			t.Errorf("cell %d: estimate %v, want %v", i, est[i], joint[i])
		}
	}
}

func TestEstimateJointIdentityIsExact(t *testing.T) {
	mr, err := NewMultiRR(rr.Identity(2), rr.Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	records := [][]int{{0, 0}, {1, 2}, {1, 2}, {0, 1}}
	est, err := mr.EstimateJoint(records)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := mr.EmpiricalJoint(records)
	if err != nil {
		t.Fatal(err)
	}
	for i := range est {
		if math.Abs(est[i]-emp[i]) > 1e-10 {
			t.Fatalf("identity estimate differs from empirical: %v vs %v", est, emp)
		}
	}
}

func TestEstimateJointSingularMatrix(t *testing.T) {
	mr, err := NewMultiRR(rr.TotallyRandom(3), rr.Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mr.EstimateJoint([][]int{{0, 0}}); err == nil {
		t.Fatal("singular per-axis matrix accepted")
	}
}

func TestMarginal(t *testing.T) {
	mr, err := NewMultiRR(rr.Identity(2), rr.Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	// joint[a*3+b]
	joint := []float64{0.1, 0.2, 0.0, 0.3, 0.1, 0.3}
	m0, sizes0, err := mr.Marginal(joint, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if sizes0[0] != 2 || math.Abs(m0[0]-0.3) > 1e-12 || math.Abs(m0[1]-0.7) > 1e-12 {
		t.Fatalf("marginal over attr 0 = %v", m0)
	}
	m1, _, err := mr.Marginal(joint, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	want1 := []float64{0.4, 0.3, 0.3}
	for i := range want1 {
		if math.Abs(m1[i]-want1[i]) > 1e-12 {
			t.Fatalf("marginal over attr 1 = %v", m1)
		}
	}
	// keep both, transposed order.
	mBoth, sizesBoth, err := mr.Marginal(joint, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sizesBoth[0] != 3 || sizesBoth[1] != 2 {
		t.Fatalf("transposed sizes = %v", sizesBoth)
	}
	if math.Abs(mBoth[0*2+1]-joint[1*3+0]) > 1e-12 {
		t.Fatal("transposed marginal mismatch")
	}
	if _, _, err := mr.Marginal(joint, []int{0, 0}); !errors.Is(err, ErrSchema) {
		t.Fatal("duplicate keep accepted")
	}
	if _, _, err := mr.Marginal(joint[:3], []int{0}); !errors.Is(err, ErrSchema) {
		t.Fatal("short joint accepted")
	}
}

// TestPropertyEstimateJointUnbiasedOnExactInput: feeding the exact disguised
// joint distribution (M applied analytically) through invertAxes returns the
// original joint.
func TestPropertyJointInversionRoundTrip(t *testing.T) {
	f := func(seed uint64, aRaw, bRaw uint8) bool {
		r := randx.New(seed)
		na := int(aRaw%3) + 2
		nb := int(bRaw%3) + 2
		ma := mustWarner(t, na, 0.6+0.3*r.Float64())
		mb := mustWarner(t, nb, 0.6+0.3*r.Float64())
		mr, err := NewMultiRR(ma, mb)
		if err != nil {
			return false
		}
		joint := make([]float64, na*nb)
		var sum float64
		for i := range joint {
			joint[i] = r.Float64() + 0.01
			sum += joint[i]
		}
		for i := range joint {
			joint[i] /= sum
		}
		// Disguised joint = (Ma ⊗ Mb)·joint, computed cell by cell.
		disguisedJoint := make([]float64, na*nb)
		for yi := 0; yi < na; yi++ {
			for yj := 0; yj < nb; yj++ {
				var s float64
				for xi := 0; xi < na; xi++ {
					for xj := 0; xj < nb; xj++ {
						s += ma.Theta(yi, xi) * mb.Theta(yj, xj) * joint[xi*nb+xj]
					}
				}
				disguisedJoint[yi*nb+yj] = s
			}
		}
		est, err := mr.invertAxes(disguisedJoint)
		if err != nil {
			return false
		}
		for i := range joint {
			if math.Abs(est[i]-joint[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEstimateJoint3Attrs(b *testing.B) {
	r := randx.New(1)
	mr, err := NewMultiRR(mustWarner(b, 4, 0.8), mustWarner(b, 4, 0.8), mustWarner(b, 4, 0.8))
	if err != nil {
		b.Fatal(err)
	}
	records := make([][]int, 10000)
	for i := range records {
		records[i] = []int{r.Intn(4), r.Intn(4), r.Intn(4)}
	}
	disguised, err := mr.Disguise(records, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mr.EstimateJoint(disguised); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEstimateJointMatchesTupleEstimator pins that the mining estimator and
// rr.TupleEstimateJoint are one reconstruction: on the same disguised
// three-attribute records they agree to 1e-12 in every cell.
func TestEstimateJointMatchesTupleEstimator(t *testing.T) {
	r := randx.New(9)
	sizes := []int{3, 4, 2}
	joint := make([]float64, 24)
	var sum float64
	for i := range joint {
		joint[i] = 0.2 + r.Float64()
		sum += joint[i]
	}
	for i := range joint {
		joint[i] /= sum
	}
	ms := []*rr.Matrix{mustWarner(t, 3, 0.7), mustWarner(t, 4, 0.6), mustWarner(t, 2, 0.8)}
	mr, err := NewMultiRR(ms...)
	if err != nil {
		t.Fatal(err)
	}
	disguised, err := mr.Disguise(sampleJoint(t, joint, sizes, 5000, r), r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mr.EstimateJoint(disguised)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rr.TupleEstimateJoint(ms, disguised)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("estimate has %d cells, tuple estimator %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("cell %d: mining estimate %v, tuple estimate %v", i, got[i], want[i])
		}
	}
}
