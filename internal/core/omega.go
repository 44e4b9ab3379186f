package core

import (
	"optrr/internal/metrics"
	"optrr/internal/pareto"
)

// cloner is the constraint on a search genotype: a genome value the
// generation loop and Ω can deep-copy. Genome is the 1-D genotype, tuple
// the multi-attribute one.
type cloner[G any] interface {
	Clone() G
}

// member couples a genome of the search's genotype with its
// objective-space evaluation.
type member[G cloner[G]] struct {
	Genome G
	Eval   metrics.Evaluation
}

// Individual couples a genome with its objective-space evaluation.
type Individual = member[Genome]

// Point returns the member's image in objective space: the canonical
// privacy/utility pair plus any configured extra objectives (already in
// canonical minimized form, see metrics.Evaluation.Extra).
func (ind member[G]) Point() pareto.Point {
	return pareto.NewPoint(ind.Eval.Privacy, ind.Eval.Utility, ind.Eval.Extra...)
}

// clone deep-copies the member's genome.
func (ind member[G]) clone() member[G] {
	return member[G]{Genome: ind.Genome.Clone(), Eval: ind.Eval}
}

// Omega is the paper's "optimal set" (Section V-H): a large archive indexed
// by privacy value that collects good matrices the bounded population and
// archive would otherwise discard. Privacy lives in [0, 1); an Omega of size
// S buckets it into S equal bins, each remembering the matrix with the best
// (lowest) utility seen for that privacy level. Updates are O(1), so Omega
// can be much larger than the evolving sets without affecting the cubic
// environmental-selection cost. Ω is generic over the genotype G: the 1-D
// search stores Genome members, the multi-attribute search genome tuples.
type Omega[G cloner[G]] struct {
	bins []*member[G]

	// Cumulative churn counters: inserts counts every entry stored (first
	// occupation or replacement of a bin), evictions counts the subset that
	// displaced an existing entry. inserts − evictions is therefore the
	// number of occupied bins. The convergence telemetry diffs these across
	// generations — high eviction rates mean the search is still reshuffling
	// the optimal set, a churn signal the paper's Section V-H update has no
	// other way to expose.
	inserts   int
	evictions int
}

// NewOmega returns an optimal set with the given number of privacy bins.
// Size 0 disables the set (every operation becomes a no-op), which is the
// paper-vs-plain-SPEA2 ablation switch.
func NewOmega[G cloner[G]](size int) *Omega[G] {
	if size <= 0 {
		return &Omega[G]{}
	}
	return &Omega[G]{bins: make([]*member[G], size)}
}

// Enabled reports whether the set is active.
func (o *Omega[G]) Enabled() bool { return len(o.bins) > 0 }

// Len returns the number of occupied bins.
func (o *Omega[G]) Len() int {
	n := 0
	for _, b := range o.bins {
		if b != nil {
			n++
		}
	}
	return n
}

// binIndex maps a privacy value to its bin. Values outside [0, 1) clamp.
func (o *Omega[G]) binIndex(privacy float64) int {
	i := int(privacy * float64(len(o.bins)))
	if i < 0 {
		return 0
	}
	if i >= len(o.bins) {
		return len(o.bins) - 1
	}
	return i
}

// Update offers an individual to the set; the individual is stored (cloned)
// if its bin is empty or it improves the bin's utility. It reports whether
// the set changed. The rule is deliberately unchanged under extra
// objectives: bins index privacy and keep the utility-best entry exactly as
// in the paper, so the canonical search is bit-for-bit stable; extras enter
// through FrontSnapshot, whose dominance filter runs over the full k-dim
// points.
func (o *Omega[G]) Update(ind member[G]) bool {
	if !o.Enabled() {
		return false
	}
	i := o.binIndex(ind.Eval.Privacy)
	cur := o.bins[i]
	if cur != nil && cur.Eval.Utility <= ind.Eval.Utility {
		return false
	}
	if cur != nil {
		o.evictions++
	}
	o.inserts++
	clone := ind.clone()
	o.bins[i] = &clone
	return true
}

// Churn returns the cumulative insert and eviction counts since
// construction. Per-generation churn is the difference between two
// consecutive readings.
func (o *Omega[G]) Churn() (inserts, evictions int) {
	return o.inserts, o.evictions
}

// UpdateAll offers every individual and returns how many bins improved.
func (o *Omega[G]) UpdateAll(inds []member[G]) int {
	changed := 0
	for _, ind := range inds {
		if o.Update(ind) {
			changed++
		}
	}
	return changed
}

// Fold offers every occupied entry of src to o under the normal Update rule
// and returns how many bins improved. Unlike UpdateAll over src.Snapshot()
// it clones nothing up front — only entries that actually land in a bin pay
// for a copy — which keeps the island-model epoch fold cheap.
func (o *Omega[G]) Fold(src *Omega[G]) int {
	changed := 0
	for _, b := range src.bins {
		if b != nil && o.Update(*b) {
			changed++
		}
	}
	return changed
}

// ImproveArchive is the reverse direction of the paper's three-set update:
// each archive member whose privacy bin holds a strictly better (lower
// utility) Ω entry is replaced by a clone of that entry. It returns the
// number of replacements.
func (o *Omega[G]) ImproveArchive(archive []member[G]) int {
	if !o.Enabled() {
		return 0
	}
	replaced := 0
	for k := range archive {
		i := o.binIndex(archive[k].Eval.Privacy)
		best := o.bins[i]
		if best != nil && best.Eval.Utility < archive[k].Eval.Utility {
			archive[k] = best.clone()
			replaced++
		}
	}
	return replaced
}

// Snapshot returns the occupied entries (cloned), ordered by bin (ascending
// privacy).
func (o *Omega[G]) Snapshot() []member[G] {
	var out []member[G]
	for _, b := range o.bins {
		if b != nil {
			out = append(out, b.clone())
		}
	}
	return out
}

// FrontSnapshot returns the Pareto-optimal subset of the occupied entries,
// sorted by ascending privacy — the paper's final output.
func (o *Omega[G]) FrontSnapshot() []member[G] {
	refs := o.frontRefs()
	out := make([]member[G], len(refs))
	for i, ind := range refs {
		out[i] = ind.clone()
	}
	return out
}

// spread returns k occupied entries evenly spaced across the privacy bins,
// without cloning — the cheap privacy-diverse sample the island migration
// exports. Unlike frontRefs it skips the O(n²) dominance filter: bins
// already hold the utility-best entry per privacy level, so an evenly
// spaced pick is near-optimal at O(bins) cost. The returned genomes alias
// the live bins and must be cloned before retention.
func (o *Omega[G]) spread(k int) []member[G] {
	var all []member[G]
	for _, b := range o.bins {
		if b != nil {
			all = append(all, *b)
		}
	}
	if len(all) <= k || k < 2 {
		return all
	}
	out := make([]member[G], 0, k)
	for j := 0; j < k; j++ {
		out = append(out, all[j*(len(all)-1)/(k-1)])
	}
	return out
}

// frontRefs is FrontSnapshot without the clones: the returned genomes alias
// the live bins, so callers must either not retain them past the next Update
// or clone what they keep.
func (o *Omega[G]) frontRefs() []member[G] {
	var all []member[G]
	for _, b := range o.bins {
		if b != nil {
			all = append(all, *b)
		}
	}
	return paretoMembers(all)
}

// paretoMembers returns the non-dominated members of inds, in input order and
// without cloning.
func paretoMembers[G cloner[G]](inds []member[G]) []member[G] {
	pts := make([]pareto.Point, len(inds))
	for i, ind := range inds {
		pts[i] = ind.Point()
	}
	idx := pareto.Front(pts)
	out := make([]member[G], 0, len(idx))
	for _, i := range idx {
		out = append(out, inds[i])
	}
	return out
}
