package rr

import (
	"errors"
	"fmt"
	"math"

	"optrr/internal/matrix"
	"optrr/internal/randx"
)

// Product is the multi-attribute channel: a d-attribute record is disguised
// by applying each attribute's matrix to its own column independently, so
// the joint channel over the product space is the Kronecker product ⊗_d M_d.
// That product is never materialized. The joint distribution is
// reconstructed by applying the factored inverse (⊗M_d)⁻¹ = ⊗M_d⁻¹ to the
// empirical joint of the disguised records, which costs d small LU
// factorizations plus one O(N·Σn_d) factored apply.
//
// Joint distributions are flattened row-major over the product space with
// attribute 0 slowest: cell ((rec_0·n_1 + rec_1)·n_2 + …) — see Index. The
// Kronecker factor order of internal/matrix and internal/metrics follows the
// same convention.
//
// A schema whose cell count overflows int (63 binary attributes, or about
// 19 of 10 categories) is still a valid channel: disguising and
// EstimateAttributes never touch the whole product space. Only the methods
// indexed by cell — Cells, Index, EmpiricalJoint, EstimateJoint,
// InvertJoint and Marginal — return ErrShape for it.
type Product struct {
	ms    []*Matrix
	sizes []int
	// cells is ∏_d n_d; cellsErr is set instead when that overflows int.
	cells    int
	cellsErr error
}

// NewProduct builds the product channel of one matrix per attribute. It
// returns ErrShape for an empty or nil matrix list.
func NewProduct(ms ...*Matrix) (*Product, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("%w: no attributes", ErrShape)
	}
	p := &Product{ms: append([]*Matrix(nil), ms...), sizes: make([]int, len(ms)), cells: 1}
	for d, m := range ms {
		if m == nil {
			return nil, fmt.Errorf("%w: nil matrix for attribute %d", ErrShape, d)
		}
		n := m.N()
		p.sizes[d] = n
		switch {
		case p.cellsErr != nil:
		case p.cells > math.MaxInt/n:
			p.cells = 0
			p.cellsErr = fmt.Errorf("%w: product space of %d attributes overflows int at attribute %d", ErrShape, len(ms), d)
		default:
			p.cells *= n
		}
	}
	return p, nil
}

// Attributes returns the number of attributes.
func (p *Product) Attributes() int { return len(p.ms) }

// Sizes returns the per-attribute category counts.
func (p *Product) Sizes() []int { return append([]int(nil), p.sizes...) }

// Cells returns the number of cells of the product space, ∏_d n_d. It
// returns ErrShape when that count overflows int.
func (p *Product) Cells() (int, error) { return p.cells, p.cellsErr }

// Matrix returns the RR matrix of attribute d.
func (p *Product) Matrix(d int) *Matrix { return p.ms[d] }

// Check validates records against the schema: each must have one value per
// attribute, inside that attribute's category range. It returns ErrShape
// naming the first record that does not fit.
func (p *Product) Check(records [][]int) error {
	for k, rec := range records {
		if err := p.check(rec); err != nil {
			return fmt.Errorf("record %d: %w", k, err)
		}
	}
	return nil
}

// check validates one multi-attribute record against the schema.
func (p *Product) check(rec []int) error {
	if len(rec) != len(p.sizes) {
		return fmt.Errorf("%w: record has %d attributes, want %d", ErrShape, len(rec), len(p.sizes))
	}
	for d, v := range rec {
		if v < 0 || v >= p.sizes[d] {
			return fmt.Errorf("%w: attribute %d has value %d, want [0,%d)", ErrShape, d, v, p.sizes[d])
		}
	}
	return nil
}

// Index flattens a multi-attribute record into its row-major cell index,
// attribute 0 slowest: idx = ((rec_0·n_1 + rec_1)·n_2 + …).
func (p *Product) Index(rec []int) (int, error) {
	if err := p.check(rec); err != nil {
		return 0, err
	}
	if p.cellsErr != nil {
		return 0, p.cellsErr
	}
	idx := 0
	for d, v := range rec {
		idx = idx*p.sizes[d] + v
	}
	return idx, nil
}

// Unindex inverts Index for a cell index in [0, Cells()); a product whose
// cell count overflows int has no such index.
func (p *Product) Unindex(idx int) []int {
	rec := make([]int, len(p.sizes))
	for d := len(p.sizes) - 1; d >= 0; d-- {
		rec[d] = idx % p.sizes[d]
		idx /= p.sizes[d]
	}
	return rec
}

// sub returns the product channel of the listed attributes, in list order.
// Every attribute must be in range and listed at most once.
func (p *Product) sub(attrs []int) (*Product, error) {
	ms := make([]*Matrix, len(attrs))
	seen := make(map[int]bool, len(attrs))
	for i, d := range attrs {
		if d < 0 || d >= len(p.ms) || seen[d] {
			return nil, fmt.Errorf("%w: bad attribute %d", ErrShape, d)
		}
		seen[d] = true
		ms[i] = p.ms[d]
	}
	return NewProduct(ms...)
}

// Disguise applies each attribute's matrix independently to every record,
// drawing from the matrices' cached alias tables (see Matrix.Samplers) one
// record at a time, attributes in order.
func (p *Product) Disguise(records [][]int, r *randx.Source) ([][]int, error) {
	samplers := make([][]*randx.Alias, len(p.ms))
	for d, m := range p.ms {
		s, err := m.Samplers()
		if err != nil {
			return nil, fmt.Errorf("rr: attribute %d: %w", d, err)
		}
		samplers[d] = s
	}
	out := p.rows(len(records))
	for k, rec := range records {
		if err := p.check(rec); err != nil {
			return nil, fmt.Errorf("record %d: %w", k, err)
		}
		for d, v := range rec {
			out[k][d] = samplers[d][v].Draw(r)
		}
	}
	return out, nil
}

// rows allocates n records of attribute length over one backing array.
func (p *Product) rows(n int) [][]int {
	attrs := len(p.ms)
	backing := make([]int, n*attrs)
	out := make([][]int, n)
	for k := range out {
		out[k] = backing[k*attrs : (k+1)*attrs : (k+1)*attrs]
	}
	return out
}

// tupleSeeds derives one independent disguise seed per attribute from the
// caller's seed by sequential draws. (Deliberately not randx.StreamSeed(seed,
// d) reused as a batch seed: DisguiseBatchInto already streams per chunk from
// its seed, and the splitmix64 mixing is symmetric in (attribute, chunk) —
// attribute 1/chunk 0 would collide with attribute 0/chunk 1.)
func tupleSeeds(seed uint64, attrs int) []uint64 {
	r := randx.New(seed)
	out := make([]uint64, attrs)
	for d := range out {
		out[d] = r.Uint64()
	}
	return out
}

// DisguiseBatch disguises multi-attribute records — records[k][d] is record
// k's category on attribute d — by applying attribute d's matrix to column d
// via the chunked batch kernel, returning freshly allocated disguised
// records. The output depends only on (p, records, seed), never on the
// worker count (zero workers means GOMAXPROCS), exactly as for
// Matrix.DisguiseBatch.
func (p *Product) DisguiseBatch(records [][]int, seed uint64, workers int) ([][]int, error) {
	dst := p.rows(len(records))
	if err := p.DisguiseBatchInto(dst, records, seed, workers); err != nil {
		return nil, err
	}
	return dst, nil
}

// DisguiseBatchInto is DisguiseBatch into caller-provided storage: dst must
// have one row per record, each of attribute length. dst and records may
// not alias. On error the contents of dst are unspecified.
func (p *Product) DisguiseBatchInto(dst, records [][]int, seed uint64, workers int) error {
	attrs := len(p.ms)
	if len(dst) != len(records) {
		return fmt.Errorf("%w: dst of %d rows for %d records", ErrShape, len(dst), len(records))
	}
	for k, rec := range records {
		if len(rec) != attrs {
			return fmt.Errorf("%w: record %d has %d attributes, want %d", ErrShape, k, len(rec), attrs)
		}
		if len(dst[k]) != attrs {
			return fmt.Errorf("%w: dst row %d has %d attributes, want %d", ErrShape, k, len(dst[k]), attrs)
		}
	}
	seeds := tupleSeeds(seed, attrs)
	col := make([]int, len(records))
	out := make([]int, len(records))
	for d, m := range p.ms {
		for k, rec := range records {
			col[k] = rec[d]
		}
		if err := m.DisguiseBatchInto(out, col, seeds[d], workers); err != nil {
			return fmt.Errorf("rr: attribute %d: %w", d, err)
		}
		for k, v := range out {
			dst[k][d] = v
		}
	}
	return nil
}

// EmpiricalJoint returns the frequency table of records over the product
// space, in Index order. It returns ErrEmptyData for zero records.
func (p *Product) EmpiricalJoint(records [][]int) ([]float64, error) {
	if len(records) == 0 {
		return nil, ErrEmptyData
	}
	counts := make([]float64, p.cells)
	for k, rec := range records {
		idx, err := p.Index(rec)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", k, err)
		}
		counts[idx]++
	}
	invN := 1 / float64(len(records))
	for i := range counts {
		counts[i] *= invN
	}
	return counts, nil
}

// EstimateJoint reconstructs the original joint distribution (Index order)
// from disguised records via the factored inversion estimator:
// P̂ = (⊗M_d⁻¹)·P̂*, where P̂* is the empirical joint of the disguised
// records (Theorem 1 applied per axis). Like Matrix.EstimateInversion, the
// estimate is unbiased but may leave the simplex on small samples; pass it
// through Clip for a proper distribution. It returns ErrSingular if any
// attribute's matrix is singular.
func (p *Product) EstimateJoint(disguised [][]int) ([]float64, error) {
	joint, err := p.EmpiricalJoint(disguised)
	if err != nil {
		return nil, err
	}
	return p.InvertJoint(joint)
}

// EstimateAttributes reconstructs the joint distribution of just the listed
// attributes (in list order, flattened as their own product's Index) from
// full disguised records: the records are checked against the whole schema,
// projected onto attrs and passed through the sub-product's EstimateJoint.
// Only the listed attributes' matrices are inverted.
func (p *Product) EstimateAttributes(disguised [][]int, attrs []int) ([]float64, error) {
	sub, err := p.sub(attrs)
	if err != nil {
		return nil, err
	}
	if err := p.Check(disguised); err != nil {
		return nil, err
	}
	proj := sub.rows(len(disguised))
	for k, rec := range disguised {
		for i, d := range attrs {
			proj[k][i] = rec[d]
		}
	}
	return sub.EstimateJoint(proj)
}

// InvertJoint applies the factored inverse (⊗M_d)⁻¹ = ⊗M_d⁻¹ to a
// distribution over the product space (Index order) — the inversion step of
// EstimateJoint, for callers that already hold the disguised joint. It
// returns ErrSingular if any attribute's matrix is singular.
func (p *Product) InvertJoint(joint []float64) ([]float64, error) {
	if p.cellsErr != nil {
		return nil, p.cellsErr
	}
	if len(joint) != p.cells {
		return nil, fmt.Errorf("%w: joint of %d cells, want %d", ErrShape, len(joint), p.cells)
	}
	factors := make([]*matrix.Dense, len(p.ms))
	for d, m := range p.ms {
		factors[d] = m.DenseView()
	}
	theta, err := matrix.NewKron(factors...)
	if err != nil {
		return nil, err
	}
	inv := matrix.KronZeros(p.sizes)
	if err := theta.InverseInto(inv, matrix.NewLU()); err != nil {
		if errors.Is(err, matrix.ErrSingular) {
			return nil, fmt.Errorf("%w: %v", ErrSingular, err)
		}
		return nil, err
	}
	est := make([]float64, p.cells)
	tmp := make([]float64, p.cells)
	if err := inv.MulVecInto(est, joint, tmp); err != nil {
		return nil, err
	}
	return est, nil
}

// Marginal sums a joint distribution over the product space over every
// attribute except the ones listed in keep, returning the marginal (in keep
// order, flattened as Index of the kept attributes) and its sizes.
func (p *Product) Marginal(joint []float64, keep []int) ([]float64, []int, error) {
	if p.cellsErr != nil {
		return nil, nil, p.cellsErr
	}
	if len(joint) != p.cells {
		return nil, nil, fmt.Errorf("%w: joint of %d cells, want %d", ErrShape, len(joint), p.cells)
	}
	sub, err := p.sub(keep)
	if err != nil {
		return nil, nil, err
	}
	out := make([]float64, sub.cells)
	row := make([]int, len(keep))
	for idx, v := range joint {
		if v == 0 {
			continue
		}
		rec := p.Unindex(idx)
		for i, d := range keep {
			row[i] = rec[d]
		}
		o, err := sub.Index(row)
		if err != nil {
			return nil, nil, err
		}
		out[o] += v
	}
	return out, sub.Sizes(), nil
}
