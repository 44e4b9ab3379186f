// Package mining implements the privacy-preserving data-mining consumers
// that motivate the paper (Sections I–II) on top of the RR substrate:
//
//   - decision-tree building on reconstructed distributions, in the style
//     of Du & Zhan (KDD 2003);
//   - association-rule mining with reconstructed supports, in the style of
//     Rizvi & Haritsa (VLDB 2002);
//   - naive-Bayes classification and chi-square independence testing from
//     disguised data;
//   - heavy-hitter discovery over a scheme collector.
//
// The multi-dimensional randomized response they run on — the paper's
// stated future work (Section VII) — is rr.Product: each attribute is
// disguised independently and the joint distribution is reconstructed by
// the Kronecker-factored inverse. All consumers operate purely on disguised
// records plus the product channel that disguised them; original data never
// enters the computation.
package mining

import (
	"errors"
	"fmt"

	"optrr/internal/rr"
)

// Mining errors.
var (
	// ErrSchema reports records inconsistent with the attribute schema.
	ErrSchema = errors.New("mining: record does not match schema")
	// ErrNoData reports an estimation request over zero records.
	ErrNoData = errors.New("mining: no records")
)

// wrapRR maps the product channel's validation errors onto the mining
// ones, keeping the rr error in the chain: a record or attribute that does
// not fit the schema becomes ErrSchema, zero records ErrNoData.
func wrapRR(err error) error {
	switch {
	case errors.Is(err, rr.ErrShape):
		return fmt.Errorf("%w: %w", ErrSchema, err)
	case errors.Is(err, rr.ErrEmptyData):
		return fmt.Errorf("%w: %w", ErrNoData, err)
	}
	return err
}
