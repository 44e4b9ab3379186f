// Package mining implements the privacy-preserving data-mining consumers
// that motivate the paper (Sections I–II) on top of the RR substrate:
//
//   - multi-dimensional randomized response — the paper's stated future
//     work (Section VII): each attribute is disguised independently and the
//     joint distribution is reconstructed by the Kronecker-factored inverse;
//   - decision-tree building on reconstructed distributions, in the style
//     of Du & Zhan (KDD 2003);
//   - association-rule mining with reconstructed supports, in the style of
//     Rizvi & Haritsa (VLDB 2002);
//   - naive-Bayes classification from disguised data.
//
// All consumers operate purely on disguised records plus the RR matrices
// used to disguise them; original data never enters the computation.
package mining

import (
	"errors"
	"fmt"

	"optrr/internal/randx"
	"optrr/internal/rr"
)

// Mining errors.
var (
	// ErrSchema reports records inconsistent with the attribute schema.
	ErrSchema = errors.New("mining: record does not match schema")
	// ErrNoData reports an estimation request over zero records.
	ErrNoData = errors.New("mining: no records")
)

// MultiRR disguises and reconstructs multi-attribute categorical data by
// applying an independent RR matrix per attribute. The joint disguise
// channel is the Kronecker product of the per-attribute matrices, so the
// joint distribution is reconstructed through the factored inverse
// ⊗M_d⁻¹ — never materializing the exponentially large product matrix.
type MultiRR struct {
	ms    []*rr.Matrix
	sizes []int
	total int
}

// NewMultiRR builds a multi-dimensional disguiser from one matrix per
// attribute.
func NewMultiRR(ms ...*rr.Matrix) (*MultiRR, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("%w: no attributes", ErrSchema)
	}
	sizes := make([]int, len(ms))
	total := 1
	for d, m := range ms {
		if m == nil {
			return nil, fmt.Errorf("%w: nil matrix for attribute %d", ErrSchema, d)
		}
		sizes[d] = m.N()
		total *= m.N()
	}
	return &MultiRR{ms: ms, sizes: sizes, total: total}, nil
}

// Attributes returns the number of attributes.
func (mr *MultiRR) Attributes() int { return len(mr.ms) }

// Sizes returns the per-attribute category counts.
func (mr *MultiRR) Sizes() []int {
	out := make([]int, len(mr.sizes))
	copy(out, mr.sizes)
	return out
}

// JointSize returns the number of cells in the joint distribution.
func (mr *MultiRR) JointSize() int { return mr.total }

// Matrix returns the RR matrix of attribute d.
func (mr *MultiRR) Matrix(d int) *rr.Matrix { return mr.ms[d] }

// checkRecord validates one multi-attribute record.
func (mr *MultiRR) checkRecord(rec []int) error {
	if len(rec) != len(mr.sizes) {
		return fmt.Errorf("%w: record has %d attributes, want %d", ErrSchema, len(rec), len(mr.sizes))
	}
	for d, v := range rec {
		if v < 0 || v >= mr.sizes[d] {
			return fmt.Errorf("%w: attribute %d has value %d, want [0,%d)", ErrSchema, d, v, mr.sizes[d])
		}
	}
	return nil
}

// Disguise applies each attribute's RR matrix independently to every record.
func (mr *MultiRR) Disguise(records [][]int, r *randx.Source) ([][]int, error) {
	samplers := make([][]*randx.Alias, len(mr.ms))
	for d, m := range mr.ms {
		samplers[d] = make([]*randx.Alias, m.N())
		for i := 0; i < m.N(); i++ {
			a, err := randx.NewAlias(m.Column(i))
			if err != nil {
				return nil, fmt.Errorf("mining: attribute %d column %d: %w", d, i, err)
			}
			samplers[d][i] = a
		}
	}
	out := make([][]int, len(records))
	for k, rec := range records {
		if err := mr.checkRecord(rec); err != nil {
			return nil, fmt.Errorf("record %d: %w", k, err)
		}
		row := make([]int, len(rec))
		for d, v := range rec {
			row[d] = samplers[d][v].Draw(r)
		}
		out[k] = row
	}
	return out, nil
}

// Index flattens a multi-attribute value into a row-major joint-cell index.
func (mr *MultiRR) Index(rec []int) (int, error) {
	if err := mr.checkRecord(rec); err != nil {
		return 0, err
	}
	idx := 0
	for d, v := range rec {
		idx = idx*mr.sizes[d] + v
	}
	return idx, nil
}

// Unindex inverts Index.
func (mr *MultiRR) Unindex(idx int) []int {
	rec := make([]int, len(mr.sizes))
	for d := len(mr.sizes) - 1; d >= 0; d-- {
		rec[d] = idx % mr.sizes[d]
		idx /= mr.sizes[d]
	}
	return rec
}

// EmpiricalJoint returns the flattened joint frequency table of records.
func (mr *MultiRR) EmpiricalJoint(records [][]int) ([]float64, error) {
	if len(records) == 0 {
		return nil, ErrNoData
	}
	joint := make([]float64, mr.total)
	inv := 1 / float64(len(records))
	for k, rec := range records {
		idx, err := mr.Index(rec)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", k, err)
		}
		joint[idx] += inv
	}
	return joint, nil
}

// EstimateJoint reconstructs the original joint distribution from disguised
// records: the empirical disguised joint is multiplied by the factored
// inverse (⊗M_d)⁻¹ = ⊗M_d⁻¹ (Theorem 1 applied per axis), the same
// reconstruction as rr.TupleEstimateJoint. The estimate is unbiased but, like
// the one-dimensional inversion estimate, may contain small negative entries
// for finite samples; use rr.Clip if a proper distribution is required.
func (mr *MultiRR) EstimateJoint(disguised [][]int) ([]float64, error) {
	joint, err := mr.EmpiricalJoint(disguised)
	if err != nil {
		return nil, err
	}
	return mr.invertAxes(joint)
}

// invertAxes applies (⊗M_d)⁻¹ to the flattened joint table.
func (mr *MultiRR) invertAxes(joint []float64) ([]float64, error) {
	return rr.TupleInvertJoint(mr.ms, joint)
}

// Marginal sums the joint distribution over every attribute except the ones
// listed in keep (in keep order), returning the flattened marginal and its
// sizes.
func (mr *MultiRR) Marginal(joint []float64, keep []int) ([]float64, []int, error) {
	if len(joint) != mr.total {
		return nil, nil, fmt.Errorf("%w: joint of size %d, want %d", ErrSchema, len(joint), mr.total)
	}
	seen := make(map[int]bool, len(keep))
	outSizes := make([]int, len(keep))
	outTotal := 1
	for i, d := range keep {
		if d < 0 || d >= len(mr.sizes) || seen[d] {
			return nil, nil, fmt.Errorf("%w: bad keep attribute %d", ErrSchema, d)
		}
		seen[d] = true
		outSizes[i] = mr.sizes[d]
		outTotal *= mr.sizes[d]
	}
	out := make([]float64, outTotal)
	for idx, v := range joint {
		if v == 0 {
			continue
		}
		rec := mr.Unindex(idx)
		o := 0
		for i, d := range keep {
			o = o*outSizes[i] + rec[d]
		}
		out[o] += v
	}
	return out, outSizes, nil
}
