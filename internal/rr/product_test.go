package rr

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"optrr/internal/randx"
)

// tupleRecords draws multi-attribute records with categories in range.
func tupleRecords(sizes []int, total int, seed uint64) [][]int {
	r := randx.New(seed)
	recs := make([][]int, total)
	for k := range recs {
		rec := make([]int, len(sizes))
		for d, n := range sizes {
			rec[d] = r.Intn(n)
		}
		recs[k] = rec
	}
	return recs
}

// mustProduct builds the product of one Warner matrix per attribute size.
func mustProduct(t *testing.T, sizes []int, p float64) *Product {
	t.Helper()
	ms := make([]*Matrix, len(sizes))
	for d, n := range sizes {
		m, err := Warner(n, p)
		if err != nil {
			t.Fatal(err)
		}
		ms[d] = m
	}
	return mustNewProduct(t, ms...)
}

// mustNewProduct is NewProduct failing the test on error.
func mustNewProduct(t testing.TB, ms ...*Matrix) *Product {
	t.Helper()
	p, err := NewProduct(ms...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// cellsOf is Product.Cells failing the test on error.
func cellsOf(t testing.TB, p *Product) int {
	t.Helper()
	cells, err := p.Cells()
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// TestTupleDisguiseBatchDeterministicAcrossWorkers is the product batch
// kernel's contract: output depends only on (ms, records, seed), never on worker
// count, including totals straddling chunk boundaries.
func TestTupleDisguiseBatchDeterministicAcrossWorkers(t *testing.T) {
	sizes := []int{3, 5, 2}
	prod := mustProduct(t, sizes, 0.7)
	for _, total := range []int{1, disguiseChunk - 1, disguiseChunk + 1} {
		recs := tupleRecords(sizes, total, uint64(total))
		want, err := prod.DisguiseBatch(recs, 42, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 8, runtime.GOMAXPROCS(0)} {
			got, err := prod.DisguiseBatch(recs, 42, w)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				for d := range want[k] {
					if got[k][d] != want[k][d] {
						t.Fatalf("total=%d workers=%d: record %d attr %d = %d, want %d",
							total, w, k, d, got[k][d], want[k][d])
					}
				}
			}
		}
	}
}

// TestTupleDisguiseBatchMatchesColumnwise pins the construction: attribute d
// of the batch output equals a 1-D DisguiseBatch of column d under the d-th
// derived seed, so the product kernel adds no randomness of its own.
func TestTupleDisguiseBatchMatchesColumnwise(t *testing.T) {
	sizes := []int{4, 3}
	prod := mustProduct(t, sizes, 0.65)
	recs := tupleRecords(sizes, 1000, 3)
	got, err := prod.DisguiseBatch(recs, 99, 4)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tupleSeeds(99, len(sizes))
	for d := range sizes {
		m := prod.Matrix(d)
		col := make([]int, len(recs))
		for k, rec := range recs {
			col[k] = rec[d]
		}
		want, err := m.DisguiseBatch(col, seeds[d], 1)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if got[k][d] != want[k] {
				t.Fatalf("attr %d record %d = %d, want columnwise %d", d, k, got[k][d], want[k])
			}
		}
	}
}

// TestTupleSeedsDistinct guards the per-attribute seed derivation against
// the symmetric (attribute, chunk) collision that StreamSeed reuse would
// reintroduce: sequential draws must all differ.
func TestTupleSeedsDistinct(t *testing.T) {
	seeds := tupleSeeds(7, 8)
	seen := map[uint64]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatalf("duplicate derived seed %d", s)
		}
		seen[s] = true
	}
	again := tupleSeeds(7, 8)
	for d := range seeds {
		if again[d] != seeds[d] {
			t.Fatalf("seed derivation not deterministic at %d", d)
		}
	}
}

// TestTupleEstimateJointRecovers is the statistical round trip: disguise a
// large batch drawn from a known joint, estimate with the factored
// inversion, and land near the truth.
func TestTupleEstimateJointRecovers(t *testing.T) {
	sizes := []int{3, 4}
	prod := mustProduct(t, sizes, 0.75)
	cells := 12
	joint := make([]float64, cells)
	r := randx.New(17)
	sum := 0.0
	for i := range joint {
		joint[i] = 0.2 + r.Float64()
		sum += joint[i]
	}
	for i := range joint {
		joint[i] /= sum
	}
	const total = 400000
	recs := make([][]int, total)
	for k := range recs {
		u := r.Float64()
		idx := 0
		for acc := 0.0; idx < cells-1; idx++ {
			acc += joint[idx]
			if u < acc {
				break
			}
		}
		recs[k] = []int{idx / sizes[1], idx % sizes[1]}
	}
	disguised, err := prod.DisguiseBatch(recs, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	est, err := prod.EstimateJoint(disguised)
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != cells {
		t.Fatalf("estimate has %d cells, want %d", len(est), cells)
	}
	esum := 0.0
	for i := range est {
		if math.Abs(est[i]-joint[i]) > 0.02 {
			t.Fatalf("cell %d: estimate %.4f, truth %.4f", i, est[i], joint[i])
		}
		esum += est[i]
	}
	if math.Abs(esum-1) > 1e-9 {
		t.Fatalf("estimate sums to %v", esum)
	}
}

// TestTupleEstimateJointIdentity pins the estimator with identity matrices:
// the estimate must equal the empirical joint of the input exactly.
func TestTupleEstimateJointIdentity(t *testing.T) {
	prod := mustNewProduct(t, Identity(2), Identity(3))
	recs := [][]int{{0, 0}, {0, 2}, {1, 1}, {1, 1}}
	est, err := prod.EstimateJoint(recs)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.25, 0, 0.25, 0, 0.5, 0}
	for i := range want {
		if est[i] != want[i] {
			t.Fatalf("cell %d = %v, want %v", i, est[i], want[i])
		}
	}
}

// TestTupleErrors walks the validation surface of the product constructor,
// the batch kernel and the estimator.
func TestTupleErrors(t *testing.T) {
	prod := mustProduct(t, []int{3, 2}, 0.7)
	if _, err := NewProduct(); !errors.Is(err, ErrShape) {
		t.Fatalf("empty tuple: %v", err)
	}
	if _, err := NewProduct(prod.Matrix(0), nil); !errors.Is(err, ErrShape) {
		t.Fatalf("nil matrix: %v", err)
	}
	if _, err := prod.DisguiseBatch([][]int{{0}}, 1, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("short record: %v", err)
	}
	if _, err := prod.DisguiseBatch([][]int{{0, 5}}, 1, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("out-of-range category: %v", err)
	}
	dst := [][]int{{0, 0}, {0, 0}}
	if err := prod.DisguiseBatchInto(dst, [][]int{{0, 0}}, 1, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("row mismatch: %v", err)
	}
	if err := prod.DisguiseBatchInto([][]int{{0}}, [][]int{{0, 0}}, 1, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("short dst row: %v", err)
	}
	if _, err := prod.EstimateJoint(nil); !errors.Is(err, ErrEmptyData) {
		t.Fatalf("empty data: %v", err)
	}
	if _, err := prod.EstimateJoint([][]int{{0, 3}}); !errors.Is(err, ErrShape) {
		t.Fatalf("estimate out-of-range: %v", err)
	}
	singular := mustNewProduct(t, prod.Matrix(0), TotallyRandom(2))
	if _, err := singular.EstimateJoint([][]int{{0, 0}}); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular factor: %v", err)
	}
	if _, err := prod.InvertJoint(make([]float64, 5)); !errors.Is(err, ErrShape) {
		t.Fatalf("short joint: %v", err)
	}
}

// TestTupleDisguiseBatchEmpty mirrors DisguiseBatch: zero records is legal
// and yields an empty output.
func TestTupleDisguiseBatchEmpty(t *testing.T) {
	prod := mustProduct(t, []int{2, 2}, 0.8)
	got, err := prod.DisguiseBatch(nil, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d rows", len(got))
	}
}

func TestNewProductValidates(t *testing.T) {
	if _, err := NewProduct(); !errors.Is(err, ErrShape) {
		t.Fatalf("empty: err = %v", err)
	}
	if _, err := NewProduct(nil); !errors.Is(err, ErrShape) {
		t.Fatalf("nil matrix: err = %v", err)
	}
	prod := mustNewProduct(t, Identity(3), Identity(4))
	if cells := cellsOf(t, prod); prod.Attributes() != 2 || cells != 12 {
		t.Fatalf("attributes = %d, cells = %d", prod.Attributes(), cells)
	}
	if s := prod.Sizes(); s[0] != 3 || s[1] != 4 {
		t.Fatalf("sizes = %v", s)
	}
}

// TestProductOverflowRejectsOnlyCellIndexedMethods pins the int-overflow
// guard: 62 binary attributes (2^62 cells) still fit; at 63 and 64 the cell
// count would wrap to a negative number or to zero and every estimate would
// index out of range, so the cell-indexed methods return ErrShape. The
// channel itself stays usable: disguising and per-attribute estimates never
// index the whole product space.
func TestProductOverflowRejectsOnlyCellIndexedMethods(t *testing.T) {
	binary := func(d int) []*Matrix {
		ms := make([]*Matrix, d)
		for i := range ms {
			m, err := Warner(2, 0.8)
			if err != nil {
				t.Fatal(err)
			}
			ms[i] = m
		}
		return ms
	}
	if cells := cellsOf(t, mustNewProduct(t, binary(62)...)); cells != 1<<62 {
		t.Fatalf("62 binary attributes: cells = %d, want 2^62", cells)
	}
	for _, d := range []int{63, 64} {
		prod := mustNewProduct(t, binary(d)...)
		recs := tupleRecords(prod.Sizes(), 200, uint64(d))
		if _, err := prod.Cells(); !errors.Is(err, ErrShape) {
			t.Fatalf("%d attributes: Cells err = %v, want ErrShape", d, err)
		}
		if _, err := prod.Index(recs[0]); !errors.Is(err, ErrShape) {
			t.Fatalf("%d attributes: Index err = %v, want ErrShape", d, err)
		}
		if _, err := prod.EmpiricalJoint(recs); !errors.Is(err, ErrShape) {
			t.Fatalf("%d attributes: EmpiricalJoint err = %v, want ErrShape", d, err)
		}
		if _, err := prod.EstimateJoint(recs); !errors.Is(err, ErrShape) {
			t.Fatalf("%d attributes: EstimateJoint err = %v, want ErrShape", d, err)
		}
		if _, err := prod.InvertJoint(nil); !errors.Is(err, ErrShape) {
			t.Fatalf("%d attributes: InvertJoint err = %v, want ErrShape", d, err)
		}
		if _, _, err := prod.Marginal(nil, []int{0}); !errors.Is(err, ErrShape) {
			t.Fatalf("%d attributes: Marginal err = %v, want ErrShape", d, err)
		}

		serial, err := prod.Disguise(recs, randx.New(1))
		if err != nil {
			t.Fatalf("%d attributes: Disguise: %v", d, err)
		}
		batch, err := prod.DisguiseBatch(recs, 1, 2)
		if err != nil {
			t.Fatalf("%d attributes: DisguiseBatch: %v", d, err)
		}
		for _, out := range [][][]int{serial, batch} {
			if err := prod.Check(out); err != nil {
				t.Fatalf("%d attributes: disguised records do not fit the schema: %v", d, err)
			}
		}
		pair, err := prod.EstimateAttributes(batch, []int{0, d - 1})
		if err != nil {
			t.Fatalf("%d attributes: EstimateAttributes: %v", d, err)
		}
		if len(pair) != 4 {
			t.Fatalf("%d attributes: pair estimate has %d cells, want 4", d, len(pair))
		}
	}
}

func TestProductIndexUnindexRoundTrip(t *testing.T) {
	prod := mustProduct(t, []int{3, 4, 2}, 0.8)
	for idx := 0; idx < cellsOf(t, prod); idx++ {
		rec := prod.Unindex(idx)
		back, err := prod.Index(rec)
		if err != nil {
			t.Fatal(err)
		}
		if back != idx {
			t.Fatalf("round trip failed: %d -> %v -> %d", idx, rec, back)
		}
	}
	if _, err := prod.Index([]int{0, 0}); !errors.Is(err, ErrShape) {
		t.Fatal("short record accepted")
	}
	if _, err := prod.Index([]int{0, 4, 0}); !errors.Is(err, ErrShape) {
		t.Fatal("out-of-range record accepted")
	}
}

func TestProductDisguiseValidatesAndPreservesShape(t *testing.T) {
	prod := mustProduct(t, []int{3, 2}, 0.8)
	records := [][]int{{0, 1}, {2, 0}, {1, 1}}
	out, err := prod.Disguise(records, randx.New(1))
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
	if _, err := prod.Disguise([][]int{{0, 5}}, randx.New(1)); !errors.Is(err, ErrShape) {
		t.Fatal("bad record accepted")
	}
	if err := prod.Check(out); err != nil {
		t.Fatalf("disguised records rejected: %v", err)
	}
	for _, bad := range [][][]int{{{0, 1}, {0}}, {{0, 1}, {3, 0}}, {{0, -1}}} {
		if err := prod.Check(bad); !errors.Is(err, ErrShape) {
			t.Fatalf("Check(%v) = %v, want ErrShape", bad, err)
		}
	}
}

func TestProductEmpiricalJoint(t *testing.T) {
	prod := mustNewProduct(t, Identity(2), Identity(2))
	joint, err := prod.EmpiricalJoint([][]int{{0, 0}, {0, 1}, {1, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.25, 0.25, 0, 0.5}
	for i := range want {
		if math.Abs(joint[i]-want[i]) > 1e-12 {
			t.Fatalf("joint = %v, want %v", joint, want)
		}
	}
	if _, err := prod.EmpiricalJoint(nil); !errors.Is(err, ErrEmptyData) {
		t.Fatal("empty data accepted")
	}
}

func TestProductMarginal(t *testing.T) {
	prod := mustNewProduct(t, Identity(2), Identity(3))
	// joint[a*3+b]
	joint := []float64{0.1, 0.2, 0.0, 0.3, 0.1, 0.3}
	m0, sizes0, err := prod.Marginal(joint, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if sizes0[0] != 2 || math.Abs(m0[0]-0.3) > 1e-12 || math.Abs(m0[1]-0.7) > 1e-12 {
		t.Fatalf("marginal over attr 0 = %v", m0)
	}
	m1, _, err := prod.Marginal(joint, []int{1})
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
	mBoth, sizesBoth, err := prod.Marginal(joint, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sizesBoth[0] != 3 || sizesBoth[1] != 2 {
		t.Fatalf("transposed sizes = %v", sizesBoth)
	}
	if math.Abs(mBoth[0*2+1]-joint[1*3+0]) > 1e-12 {
		t.Fatal("transposed marginal mismatch")
	}
	if _, _, err := prod.Marginal(joint, []int{0, 0}); !errors.Is(err, ErrShape) {
		t.Fatal("duplicate keep accepted")
	}
	if _, _, err := prod.Marginal(joint[:3], []int{0}); !errors.Is(err, ErrShape) {
		t.Fatal("short joint accepted")
	}
}

// TestEstimateAttributesMatchesSubProduct pins EstimateAttributes to its
// definition: bit for bit the EstimateJoint of the listed attributes'
// product on the projected records, in list order, after a whole-schema
// check of every record.
func TestEstimateAttributesMatchesSubProduct(t *testing.T) {
	sizes := []int{3, 4, 2}
	prod := mustProduct(t, sizes, 0.7)
	disguised, err := prod.DisguiseBatch(tupleRecords(sizes, 3000, 4), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, attrs := range [][]int{{1}, {2, 0}, {0, 1, 2}} {
		got, err := prod.EstimateAttributes(disguised, attrs)
		if err != nil {
			t.Fatal(err)
		}
		ms := make([]*Matrix, len(attrs))
		proj := make([][]int, len(disguised))
		for i, d := range attrs {
			ms[i] = prod.Matrix(d)
		}
		for k, rec := range disguised {
			for _, d := range attrs {
				proj[k] = append(proj[k], rec[d])
			}
		}
		want, err := mustNewProduct(t, ms...).EstimateJoint(proj)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("attrs %v: %d cells, want %d", attrs, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("attrs %v cell %d = %v, want %v", attrs, i, got[i], want[i])
			}
		}
	}
	if _, err := prod.EstimateAttributes(disguised, []int{0, 0}); !errors.Is(err, ErrShape) {
		t.Fatalf("duplicate attribute: %v", err)
	}
	if _, err := prod.EstimateAttributes(disguised, []int{3}); !errors.Is(err, ErrShape) {
		t.Fatalf("out-of-range attribute: %v", err)
	}
	if _, err := prod.EstimateAttributes([][]int{{0, 0, 2}}, []int{0}); !errors.Is(err, ErrShape) {
		t.Fatalf("record outside the schema on an unlisted attribute: %v", err)
	}
	if _, err := prod.EstimateAttributes(nil, []int{0}); !errors.Is(err, ErrEmptyData) {
		t.Fatalf("empty data: %v", err)
	}
}

// FuzzProductIndexRoundTrip pins the product-space index math: Index and
// Unindex must be mutual inverses for every attribute shape, every digit
// must stay in range, and the flattening must be row-major with attribute 0
// slowest (adjacent flat indices differ in the last attribute first) — the
// convention the Kronecker factor ordering of internal/matrix and the dense
// oracle metrics.JointChannel both rely on.
func FuzzProductIndexRoundTrip(f *testing.F) {
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
		ms := make([]*Matrix, len(sizes))
		for d, n := range sizes {
			ms[d] = Identity(n)
		}
		prod := mustNewProduct(t, ms...)
		idx := int(rawIdx) % cellsOf(t, prod)

		rec := prod.Unindex(idx)
		if len(rec) != len(ms) {
			t.Fatalf("Unindex(%d) has %d digits, want %d", idx, len(rec), len(ms))
		}
		for d, v := range rec {
			if v < 0 || v >= sizes[d] {
				t.Fatalf("Unindex(%d)[%d] = %d out of range [0,%d)", idx, d, v, sizes[d])
			}
		}
		if back, err := prod.Index(rec); err != nil || back != idx {
			t.Fatalf("Index(Unindex(%d)) = %d, %v", idx, back, err)
		}

		// Row-major adjacency: incrementing the last digit (when it has
		// room) increments the flat index by exactly one.
		last := len(sizes) - 1
		if rec[last]+1 < sizes[last] {
			rec[last]++
			if got, err := prod.Index(rec); err != nil || got != idx+1 {
				t.Fatalf("last-digit increment of %d gave %d, %v, want %d", idx, got, err, idx+1)
			}
			rec[last]--
		}
	})
}
