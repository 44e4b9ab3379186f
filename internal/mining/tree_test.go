package mining

import (
	"errors"
	"testing"

	"optrr/internal/randx"
	"optrr/internal/rr"
)

// xorWorld builds records over schema [2, 2, 2] where the class (attribute
// 2) is the XOR of attributes 0 and 1 with the given noise rate. XOR defeats
// single-attribute classifiers, so a correct tree must split on both.
func xorWorld(n int, noise float64, r *randx.Source) [][]int {
	out := make([][]int, n)
	for i := range out {
		a, b := r.Intn(2), r.Intn(2)
		c := a ^ b
		if r.Float64() < noise {
			c = 1 - c
		}
		out[i] = []int{a, b, c}
	}
	return out
}

func identityMR(t testing.TB, sizes ...int) *rr.Product {
	t.Helper()
	ms := make([]*rr.Matrix, len(sizes))
	for i, s := range sizes {
		ms[i] = rr.Identity(s)
	}
	return mustProduct(t, ms...)
}

func warnerMR(t testing.TB, p float64, sizes ...int) *rr.Product {
	t.Helper()
	ms := make([]*rr.Matrix, len(sizes))
	for i, s := range sizes {
		ms[i] = mustWarner(t, s, p)
	}
	return mustProduct(t, ms...)
}

func TestBuildTreeValidates(t *testing.T) {
	mr := identityMR(t, 2, 2)
	if _, err := BuildTree(mr, []float64{0.5, 0.5}, 1, TreeConfig{}); !errors.Is(err, ErrSchema) {
		t.Fatal("short joint accepted")
	}
	joint := []float64{0.25, 0.25, 0.25, 0.25}
	if _, err := BuildTree(mr, joint, 2, TreeConfig{}); !errors.Is(err, ErrSchema) {
		t.Fatal("bad class attribute accepted")
	}
}

func TestTreeLearnsXOROnCleanData(t *testing.T) {
	r := randx.New(1)
	records := xorWorld(20000, 0, r)
	mr := identityMR(t, 2, 2, 2)
	joint, err := mr.EmpiricalJoint(records)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(mr, joint, 2, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := tree.Accuracy(records)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.999 {
		t.Fatalf("XOR accuracy = %v, want ~1\n%s", acc, tree)
	}
}

// TestTreeLearnsXORFromDisguisedData is the Du–Zhan scenario: the tree is
// trained purely on disguised records (via the reconstructed joint) and must
// still classify clean records well.
func TestTreeLearnsXORFromDisguisedData(t *testing.T) {
	r := randx.New(2)
	records := xorWorld(60000, 0.05, r)
	mr := warnerMR(t, 0.8, 2, 2, 2)
	disguised, err := mr.Disguise(records, r)
	if err != nil {
		t.Fatal(err)
	}
	joint, err := mr.EstimateJoint(disguised)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(mr, joint, 2, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := tree.Accuracy(records)
	if err != nil {
		t.Fatal(err)
	}
	// Bayes-optimal accuracy is 0.95 (the label noise); the reconstructed
	// tree should get close.
	if acc < 0.9 {
		t.Fatalf("disguised-data XOR accuracy = %v, want > 0.9\n%s", acc, tree)
	}
}

func TestTreeMaxDepthForcesLeaf(t *testing.T) {
	r := randx.New(3)
	records := xorWorld(5000, 0, r)
	mr := identityMR(t, 2, 2, 2)
	joint, err := mr.EmpiricalJoint(records)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(mr, joint, 2, TreeConfig{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Depth 1: a single split (or leaf); children must be leaves.
	if !tree.Root.Leaf {
		for _, child := range tree.Root.Children {
			if !child.Leaf {
				t.Fatal("MaxDepth 1 produced a depth-2 tree")
			}
		}
	}
	// XOR is not learnable at depth 1: accuracy near 0.5.
	acc, err := tree.Accuracy(records)
	if err != nil {
		t.Fatal(err)
	}
	if acc > 0.6 {
		t.Fatalf("depth-1 XOR accuracy = %v, expected near 0.5", acc)
	}
}

func TestTreeSkipsUselessAttributes(t *testing.T) {
	// Attribute 1 is pure noise; attribute 0 equals the class. The tree
	// should split only on attribute 0 and stop.
	r := randx.New(4)
	records := make([][]int, 10000)
	for i := range records {
		a := r.Intn(2)
		records[i] = []int{a, r.Intn(3), a}
	}
	mr := identityMR(t, 2, 3, 2)
	joint, err := mr.EmpiricalJoint(records)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(mr, joint, 2, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.Leaf || tree.Root.Attr != 0 {
		t.Fatalf("root should split on attribute 0:\n%s", tree)
	}
	for _, child := range tree.Root.Children {
		if !child.Leaf {
			t.Fatalf("children should be pure leaves:\n%s", tree)
		}
	}
}

func TestTreeClassifyValidation(t *testing.T) {
	mr := identityMR(t, 2, 2)
	joint := []float64{0.5, 0, 0, 0.5}
	tree, err := BuildTree(mr, joint, 1, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Classify([]int{0}); !errors.Is(err, ErrSchema) {
		t.Fatal("short record accepted")
	}
	if _, err := tree.Classify([]int{7, 0}); !errors.Is(err, ErrSchema) {
		t.Fatal("out-of-range record accepted")
	}
	if _, err := tree.Accuracy(nil); !errors.Is(err, ErrNoData) {
		t.Fatal("empty accuracy accepted")
	}
}

func TestTreeHandlesNegativeJointEntries(t *testing.T) {
	// Inversion estimates carry small negative cells; BuildTree must clamp
	// them rather than produce negative probabilities.
	mr := identityMR(t, 2, 2)
	joint := []float64{0.6, -0.05, 0.05, 0.4}
	tree, err := BuildTree(mr, joint, 1, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Classify([]int{0, 0}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildTree(b *testing.B) {
	r := randx.New(1)
	records := xorWorld(10000, 0.05, r)
	mr := identityMR(b, 2, 2, 2)
	joint, err := mr.EmpiricalJoint(records)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTree(mr, joint, 2, TreeConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
