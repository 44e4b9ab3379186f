package mining

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"optrr/internal/metrics"
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

func mustProduct(t testing.TB, ms ...*rr.Matrix) *rr.Product {
	t.Helper()
	prod, err := rr.NewProduct(ms...)
	if err != nil {
		t.Fatal(err)
	}
	return prod
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
	prod := mustProduct(t, ms...)
	out := make([][]int, n)
	for i := range out {
		out[i] = prod.Unindex(alias.Draw(r))
	}
	return out
}

// TestMiningSixtyFourBinaryAttributes: 64 binary attributes span 2^64
// cells, more than an int indexes. Naive Bayes and the chi-square test only
// ever invert one- or two-attribute sub-products, so they still work; the
// tree, which needs the full joint, fails with ErrSchema instead of
// indexing out of range.
func TestMiningSixtyFourBinaryAttributes(t *testing.T) {
	const attrs, n = 64, 4000
	r := randx.New(11)
	records := make([][]int, n)
	for k := range records {
		rec := make([]int, attrs)
		for d := range rec {
			rec[d] = r.Intn(2)
		}
		rec[attrs-1] = rec[0] // the class copies attribute 0
		records[k] = rec
	}
	ms := make([]*rr.Matrix, attrs)
	for d := range ms {
		ms[d] = mustWarner(t, 2, 0.9)
	}
	mr := mustProduct(t, ms...)
	disguised, err := mr.DisguiseBatch(records, 5, 2)
	if err != nil {
		t.Fatal(err)
	}

	dep, err := ChiSquareIndependence(mr, disguised, 0, attrs-1)
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Dependent(0.01) {
		t.Fatalf("planted dependence missed: %+v", dep)
	}
	nb, err := TrainNaiveBayes(mr, disguised, attrs-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := nb.Accuracy(records)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("naive Bayes accuracy %.3f on clean rows, want ≥ 0.9", acc)
	}
	if _, err := BuildTree(mr, nil, attrs-1, TreeConfig{}); !errors.Is(err, ErrSchema) {
		t.Fatalf("BuildTree over 2^64 cells: err = %v, want ErrSchema", err)
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

	mr := mustProduct(t, mustWarner(t, 3, 0.8), mustWarner(t, 4, 0.75), mustWarner(t, 2, 0.85))
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
	mr := mustProduct(t, rr.Identity(2), rr.Identity(3))
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
	mr := mustProduct(t, rr.TotallyRandom(3), rr.Identity(2))
	if _, err := mr.EstimateJoint([][]int{{0, 0}}); err == nil {
		t.Fatal("singular per-axis matrix accepted")
	}
}

// TestPropertyJointInversionRoundTrip: feeding the exact disguised joint
// distribution (M applied analytically) through InvertJoint returns the
// original joint.
func TestPropertyJointInversionRoundTrip(t *testing.T) {
	f := func(seed uint64, aRaw, bRaw uint8) bool {
		r := randx.New(seed)
		na := int(aRaw%3) + 2
		nb := int(bRaw%3) + 2
		ma := mustWarner(t, na, 0.6+0.3*r.Float64())
		mb := mustWarner(t, nb, 0.6+0.3*r.Float64())
		mr := mustProduct(t, ma, mb)
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
		est, err := mr.InvertJoint(disguisedJoint)
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
	mr := mustProduct(b, mustWarner(b, 4, 0.8), mustWarner(b, 4, 0.8), mustWarner(b, 4, 0.8))
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

// TestEstimateJointMatchesTupleEstimator pins the factored reconstruction
// to the dense one it replaces: on the same disguised three-attribute
// records, rr.Product.EstimateJoint agrees to 1e-12 in every cell with the
// Theorem-1 inversion through the materialized Kronecker channel
// (metrics.JointChannel) applied to the Index-flattened records.
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
	mr := mustProduct(t, ms...)
	disguised, err := mr.Disguise(sampleJoint(t, joint, sizes, 5000, r), r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mr.EstimateJoint(disguised)
	if err != nil {
		t.Fatal(err)
	}
	flat := make([]int, len(disguised))
	for k, rec := range disguised {
		if flat[k], err = mr.Index(rec); err != nil {
			t.Fatal(err)
		}
	}
	dense, err := metrics.JointChannel(ms)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dense.EstimateInversion(flat)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("estimate has %d cells, dense oracle %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("cell %d: factored estimate %v, dense estimate %v", i, got[i], want[i])
		}
	}
}
