package metrics

import (
	"math"
	"testing"

	"optrr/internal/rr"
)

// FuzzJointIndexRoundTrip pins the cell layout of the dense oracle against
// the product-space index math it is built over: for every attribute shape,
// JointChannel's entry (j, i) is the product of the per-attribute entries at
// the digits rr.Product.Unindex gives for j and i, and those digits index
// back to j and i. The index math itself is fuzzed in rr
// (FuzzProductIndexRoundTrip); this keeps the oracle on the same row-major,
// attribute-0-slowest convention as the factored JointWorkspace.
func FuzzJointIndexRoundTrip(f *testing.F) {
	f.Add(uint16(0), byte(3), byte(2), byte(4))
	f.Add(uint16(23), byte(2), byte(2), byte(0))
	f.Add(uint16(999), byte(5), byte(5), byte(5))
	f.Add(uint16(1), byte(9), byte(0), byte(0))
	f.Fuzz(func(t *testing.T, rawIdx uint16, s1, s2, s3 byte) {
		// 1–3 attributes of 2–9 categories each; a zero size drops the
		// attribute (but attribute 0 always exists).
		sizes := []int{2 + int(s1)%8}
		if s2 != 0 {
			sizes = append(sizes, 2+int(s2)%8)
		}
		if s3 != 0 {
			sizes = append(sizes, 2+int(s3)%8)
		}
		ms := make([]*rr.Matrix, len(sizes))
		for d, n := range sizes {
			m, err := rr.Warner(n, 0.5+0.1*float64(d))
			if err != nil {
				t.Fatal(err)
			}
			ms[d] = m
		}
		prod, err := rr.NewProduct(ms...)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := JointChannel(ms)
		if err != nil {
			t.Fatal(err)
		}
		total, err := prod.Cells()
		if err != nil {
			t.Fatal(err)
		}
		if ch.N() != total {
			t.Fatalf("oracle has %d categories, product %d cells", ch.N(), total)
		}
		j := int(rawIdx) % total
		i := (int(rawIdx)*7 + 3) % total
		jd, id := prod.Unindex(j), prod.Unindex(i)
		want := 1.0
		for d, m := range ms {
			want *= m.Theta(jd[d], id[d])
		}
		if got := ch.Theta(j, i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("oracle (%d,%d) = %v, product of per-attribute entries at %v,%v = %v", j, i, got, jd, id, want)
		}
		for _, c := range []struct {
			idx    int
			digits []int
		}{{j, jd}, {i, id}} {
			if back, err := prod.Index(c.digits); err != nil || back != c.idx {
				t.Fatalf("Index(Unindex(%d)) = %d, %v", c.idx, back, err)
			}
		}
	})
}
